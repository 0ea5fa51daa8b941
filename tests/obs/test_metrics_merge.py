"""Property tests for ``MetricsRegistry.merge`` edge cases.

The sweep scheduler folds per-worker registries in whatever grouping
the backend produces, so the merge must be associative with the empty
registry as identity, asserted here with Hypothesis-generated
registries.  Gauges additionally carry the
last-write-wins contract under worker splice order: whichever operand
was updated more recently (right wins ties) supplies the value.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import Gauge, Histogram, MetricsRegistry

_COUNTERS = ["engine.round", "cache.hits", "cache.misses"]
_GAUGES = ["bound.vs_floor", "sweep.cells"]
_HISTOGRAMS = ["engine.round_seconds", "cell.wall_seconds"]

# Quarter-integer values keep float addition exactly associative, so
# the algebra can be asserted with ==.
_values = st.integers(min_value=0, max_value=1000).map(
    lambda value: value / 4.0
)


@st.composite
def _registries(draw) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name in draw(
        st.lists(st.sampled_from(_COUNTERS), max_size=3, unique=True)
    ):
        registry.counter(name).add(draw(_values))
    for name in draw(
        st.lists(st.sampled_from(_GAUGES), max_size=2, unique=True)
    ):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            registry.gauge(name).set(draw(_values))
    for name in draw(
        st.lists(st.sampled_from(_HISTOGRAMS), max_size=2, unique=True)
    ):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            registry.histogram(name).record(draw(_values))
    return registry


class TestMergeAlgebra:
    @given(_registries(), _registries(), _registries())
    def test_merge_is_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.snapshot() == right.snapshot()
        # Gauge update counts (not part of the snapshot) agree too —
        # they drive last-write-wins in any further merge.
        for name in _GAUGES:
            assert (
                left.gauge(name).updates == right.gauge(name).updates
            )

    @given(_registries())
    def test_empty_registry_is_identity(self, registry):
        empty = MetricsRegistry()
        assert empty.merge(registry).snapshot() == registry.snapshot()
        assert registry.merge(empty).snapshot() == registry.snapshot()

    @given(_registries(), _registries())
    def test_merge_never_mutates_its_operands(self, a, b):
        before_a, before_b = a.snapshot(), b.snapshot()
        a.merge(b)
        assert a.snapshot() == before_a
        assert b.snapshot() == before_b


class TestGaugeLastWriteWins:
    def test_updated_right_operand_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("bound.vs_floor").set(1.0)
        b.gauge("bound.vs_floor").set(2.0)
        assert a.merge(b).gauge("bound.vs_floor").value == 2.0

    def test_never_updated_right_operand_loses(self):
        # A worker that registered the gauge but never set it (updates
        # == 0) must not clobber a real sample during the splice fold.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("bound.vs_floor").set(1.0)
        b.gauge("bound.vs_floor")  # registered, never set
        merged = a.merge(b)
        assert merged.gauge("bound.vs_floor").value == 1.0
        assert merged.gauge("bound.vs_floor").updates == 1

    @given(
        st.lists(
            st.tuples(st.sampled_from([0, 1]), _values),
            min_size=1,
            max_size=6,
        )
    )
    def test_splice_order_fold_matches_sequential_sets(self, writes):
        # Split one write sequence across two workers; the merged
        # gauge must report the value of the last *update* in splice
        # order (worker 0's registry merged before worker 1's).
        workers = [MetricsRegistry(), MetricsRegistry()]
        last = {0: None, 1: None}
        for worker, value in writes:
            workers[worker].gauge("g").set(value)
            last[worker] = value
        merged = workers[0].merge(workers[1])
        expected = last[1] if last[1] is not None else last[0]
        assert merged.gauge("g").value == expected


class TestHistogramMerge:
    @given(
        st.lists(_values, min_size=0, max_size=8),
        st.lists(_values, min_size=0, max_size=8),
    )
    def test_merged_summary_equals_union_stream(self, xs, ys):
        a, b = Histogram("h"), Histogram("h")
        for value in xs:
            a.record(value)
        for value in ys:
            b.record(value)
        union = Histogram("h")
        for value in xs + ys:
            union.record(value)
        assert a.merged(b) == union

    def test_empty_histogram_keeps_none_bounds(self):
        merged = Histogram("h").merged(Histogram("h"))
        assert merged.count == 0
        assert merged.min is None and merged.max is None
        assert merged.mean == 0.0

    def test_gauge_merge_is_not_commutative_by_design(self):
        # Documented asymmetry: the right operand wins ties, so splice
        # order matters for gauges (and only gauges).
        a, b = Gauge("g"), Gauge("g")
        a.set(1.0)
        b.set(2.0)
        assert a.merged(b).value == 2.0
        assert b.merged(a).value == 1.0
