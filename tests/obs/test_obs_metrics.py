"""Tests for the metrics registry: instruments and associative merge."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import LedgerTracer
from repro.parallel.jobs import CacheStats


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").add(3)
        registry.counter("x").add(2)
        assert registry.counter("x").total == 5

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5
        assert registry.gauge("g").updates == 2

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 1.0):
            registry.histogram("h").record(value)
        histogram = registry.histogram("h")
        assert histogram.count == 3
        assert histogram.min == 0.5
        assert histogram.max == 1.5
        assert histogram.mean == 1.0

    def test_absorb_cache(self):
        registry = MetricsRegistry()
        registry.absorb_cache(CacheStats(hits=2, alias_hits=1, misses=5))
        registry.absorb_cache(CacheStats(hits=1, alias_hits=0, misses=1))
        assert registry.counter("cache.hits").total == 3
        assert registry.counter("cache.misses").total == 6
        assert registry.counter("cache.alias_hits").total == 1

    def test_registry_is_picklable(self):
        registry = MetricsRegistry()
        registry.counter("x").add(1)
        registry.gauge("g").set(2.0)
        registry.histogram("h").record(3.0)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()

    def test_emit_publishes_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b.count").add(2)
        registry.counter("a.count").add(1)
        registry.gauge("g").set(4.0)
        registry.histogram("h").record(1.0)
        ledger = RunLedger(run_id="r", clock=lambda: 0.0)
        registry.emit(LedgerTracer(ledger))
        names = [event.name for event in ledger.events]
        assert names == ["b.count", "a.count", "g", "h"]
        assert ledger.events[-1].attr("count") == 1


def _registries() -> st.SearchStrategy[MetricsRegistry]:
    names = st.sampled_from(["a", "b", "c"])
    values = st.integers(min_value=0, max_value=100)

    def build(
        counters: list[tuple[str, int]],
        gauges: list[tuple[str, int]],
        histograms: list[tuple[str, int]],
    ) -> MetricsRegistry:
        registry = MetricsRegistry()
        for name, value in counters:
            registry.counter(name).add(value)
        for name, value in gauges:
            registry.gauge(name).set(float(value))
        for name, value in histograms:
            registry.histogram(name).record(float(value))
        return registry

    pairs = st.lists(st.tuples(names, values), max_size=4)
    return st.builds(build, pairs, pairs, pairs)


class TestMerge:
    @given(_registries(), _registries(), _registries())
    def test_merge_is_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.snapshot() == right.snapshot()

    @given(_registries())
    def test_empty_registry_is_identity(self, registry):
        empty = MetricsRegistry()
        assert empty.merge(registry).snapshot() == registry.snapshot()
        assert registry.merge(empty).snapshot() == registry.snapshot()

    def test_merge_does_not_mutate_operands(self):
        a = MetricsRegistry()
        a.counter("x").add(1)
        b = MetricsRegistry()
        b.counter("x").add(2)
        before_a, before_b = a.snapshot(), b.snapshot()
        a.merge(b)
        assert a.snapshot() == before_a
        assert b.snapshot() == before_b

    def test_gauge_merge_prefers_updated_operand(self):
        a = MetricsRegistry()
        a.gauge("g").set(1.0)
        b = MetricsRegistry()
        assert a.merge(b).gauge("g").value == 1.0
        assert b.merge(a).gauge("g").value == 1.0
