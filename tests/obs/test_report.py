"""Tests for trace rendering and the one ledger fold behind it."""

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.ledger import LedgerEvent, RunLedger
from repro.obs.report import LedgerFold, SpanTotal, render_trace


def _sample_ledger() -> RunLedger:
    ticks = iter(float(i) for i in range(100))
    ledger = RunLedger(
        run_id="demo", worker_id=1, clock=lambda: next(ticks)
    )
    ledger.emit("span-start", "attack", n=12, t=8)
    ledger.emit("span-start", "fault-free")
    ledger.emit(
        "counter",
        "engine.round",
        value=6,
        round=1,
        run=0,
        seconds=0.001,
        cum_messages=6,
        vs_floor=3.0,
    )
    ledger.emit(
        "counter",
        "engine.round",
        value=4,
        round=2,
        run=0,
        seconds=0.004,
        cum_messages=10,
        vs_floor=5.0,
    )
    ledger.emit("span-end", "fault-free")
    ledger.emit("counter", "cache.hits", value=3)
    ledger.emit("counter", "cache.alias_hits", value=1)
    ledger.emit("counter", "cache.misses", value=4)
    ledger.emit("gauge", "bound.observed", value=10)
    ledger.emit("gauge", "bound.floor", value=2.0)
    ledger.emit("gauge", "bound.vs_floor", value=5.0)
    ledger.emit("span-end", "attack")
    return ledger


class TestSpanTree:
    def test_nesting_and_durations(self):
        tree = LedgerFold.of(_sample_ledger().events).tree
        assert tree[("attack",)][1] == 1
        # fault-free: started at ts=1, ended at ts=4.
        assert tree[("attack", "fault-free")] == (3.0, 1)

    def test_same_name_spans_aggregate(self):
        ticks = iter(float(i) for i in range(10))
        ledger = RunLedger(
            run_id="r", worker_id=1, clock=lambda: next(ticks)
        )
        for _ in range(2):
            ledger.emit("span-start", "scan")
            ledger.emit("span-end", "scan")
        assert LedgerFold.of(ledger.events).tree == {("scan",): (2.0, 2)}


def _span(kind, name, ts, worker=1, cell=None):
    return LedgerEvent(kind, name, ts, None, "r", cell, worker)


@st.composite
def _nested_streams(draw):
    """Interleaved, well-nested span streams with increasing ``ts``."""
    streams = draw(
        st.lists(
            st.lists(st.sampled_from("abc"), max_size=6),
            min_size=1,
            max_size=3,
        )
    )
    pending = []
    for index, names in enumerate(streams):
        # Each stream opens its names in order and closes them LIFO.
        ops = [("span-start", name) for name in names]
        ops += [("span-end", name) for name in reversed(names)]
        pending.append([(index, op) for op in ops])
    events = []
    clock = 0.0
    while any(pending):
        queue = draw(st.sampled_from([q for q in pending if q]))
        index, (kind, name) = queue.pop(0)
        clock += draw(st.integers(min_value=1, max_value=5))
        events.append(_span(kind, name, clock, cell=f"cell/{index}"))
    return events


class TestClosedSpans:
    def test_pairs_nearest_same_name_start(self):
        fold = LedgerFold.of(
            [
                _span("span-start", "attack", 0.0),
                _span("span-start", "scan", 1.0),
                _span("span-start", "scan", 2.0),
                _span("span-end", "scan", 4.0),
                _span("span-end", "scan", 7.0),
                _span("span-end", "attack", 9.0),
            ]
        )
        assert fold.tree == {
            ("attack",): (9.0, 1),
            ("attack", "scan"): (6.0, 1),
            ("attack", "scan", "scan"): (2.0, 1),
        }
        assert fold.spans == {
            "scan": SpanTotal(count=2, seconds=8.0, low=2.0, high=6.0),
            "attack": SpanTotal(count=1, seconds=9.0, low=9.0, high=9.0),
        }

    def test_end_drops_unclosed_spans_above_its_start(self):
        fold = LedgerFold.of(
            [
                _span("span-start", "attack", 0.0),
                _span("span-start", "lost", 1.0),
                _span("span-end", "attack", 5.0),
                _span("span-end", "lost", 6.0),
            ]
        )
        assert list(fold.spans) == ["attack"]
        # The dropped span still shows in the tree, never closed.
        assert fold.tree[("attack", "lost")] == (0.0, 0)
        assert fold.open_spans == []

    def test_streams_pair_apart(self):
        fold = LedgerFold.of(
            [
                _span("span-start", "attack", 0.0, cell="a"),
                _span("span-start", "attack", 3.0, cell="b"),
                _span("span-end", "attack", 4.0, cell="a"),
                _span("span-end", "attack", 5.0, worker=2, cell="b"),
            ]
        )
        assert fold.spans == {
            "attack": SpanTotal(count=1, seconds=4.0, low=4.0, high=4.0)
        }
        assert fold.open_spans == [(1, "b", ["attack"])]

    @given(_nested_streams())
    def test_flat_totals_fold_the_span_tree(self, events):
        # Every close lands in its tree node and in the flat totals; on
        # well-nested streams both account every span once, and none
        # stays open.
        fold = LedgerFold.of(events)
        by_name = {}
        for path, (seconds, count) in fold.tree.items():
            entry = by_name.setdefault(path[-1], [0.0, 0])
            entry[0] += seconds
            entry[1] += count
        flat = {
            name: [total.seconds, total.count]
            for name, total in fold.spans.items()
        }
        assert flat == by_name
        assert fold.open_spans == []


class TestRenderTrace:
    def test_contains_all_sections(self):
        text = render_trace(LedgerFold.of(_sample_ledger().events))
        assert "phase tree" in text
        assert "attack" in text
        assert "slowest" in text
        assert "cache hit rate: 50.0%" in text
        assert "messages / (t²/32): 5.000" in text

    def test_slowest_rounds_ranked_by_wall_time(self):
        text = render_trace(LedgerFold.of(_sample_ledger().events), slowest=1)
        # Round 2 (4 ms) outranks round 1 (1 ms).
        assert "slowest 1 rounds" in text
        slowest_section = text.split("slowest 1 rounds:")[1]
        assert "4000.0" in slowest_section

    def test_empty_ledger_renders(self):
        assert "0 events" in render_trace(LedgerFold())


class TestFloorRatioPerCell:
    """A sweep's cells differ in ``t``: each reports its own ratio."""

    CELLS = {
        # cell id: (observed messages, t²/32 floor)
        "attack/committee/n12/t8": (44, 2.0),
        "attack/committee/n28/t24": (216, 18.0),
    }

    def _two_cell_ledger(self):
        ledger = RunLedger(run_id="sweep", worker_id=1)
        for cell, (observed, floor) in self.CELLS.items():
            ledger.emit("gauge", "bound.observed", value=observed,
                        cell_id=cell)
            ledger.emit("gauge", "bound.floor", value=floor, cell_id=cell)
            ledger.emit("gauge", "bound.vs_floor", value=observed / floor,
                        cell_id=cell)
        return ledger

    def test_each_cell_prints_its_own_ratio(self):
        text = render_trace(LedgerFold.of(self._two_cell_ledger().events))
        table = text.split("per-cell summary:")[1].splitlines()
        assert "messages/floor" in table[1]
        for cell, (observed, floor) in self.CELLS.items():
            row = next(line.split() for line in table if line.startswith(cell))
            assert float(row[-2]) == observed / floor
            assert (float(row[-4]), float(row[-3])) == (observed, floor)

    def test_min_and_max_name_their_cells(self):
        text = render_trace(LedgerFold.of(self._two_cell_ledger().events))
        line = next(
            line for line in text.splitlines()
            if line.startswith("messages / (t²/32)")
        )
        assert line.startswith("messages / (t²/32) over 2 cells:")
        assert (
            "min 12.000 (attack/committee/n28/t24: 216 messages vs "
            "t²/32 = 18.0)" in line
        )
        assert (
            "max 22.000 (attack/committee/n12/t8: 44 messages vs "
            "t²/32 = 2.0)" in line
        )

    def test_log_stats_reports_each_cells_floor(self, tmp_path):
        from repro.worldlog import WorldLog, read_worldlog
        from repro.worldlog.replay import log_stats

        path = str(tmp_path / "sweep.worldlog")
        with WorldLog.create(path, run_id="sweep") as log:
            for event in self._two_cell_ledger().events:
                log.record_event(event)
        cells = log_stats(read_worldlog(path))["cells"]
        for cell, (observed, floor) in self.CELLS.items():
            assert cells[cell]["floor"] == floor
            assert cells[cell]["vs_floor"] == observed / floor

    def test_single_cell_keeps_the_one_line(self):
        text = render_trace(LedgerFold.of(_sample_ledger().events))
        assert "messages / (t²/32): 5.000 (10 messages vs t²/32 = 2.0)" in (
            text
        )


class TestValuelessEvents:
    """A counter without a value counts 1 and a gauge without one is
    skipped, in every reader of one recorded log."""

    def _log(self, tmp_path):
        from repro.worldlog import WorldLog

        path = str(tmp_path / "valueless.worldlog")
        with WorldLog.create(path, run_id="v") as log:
            ledger = RunLedger(run_id="v", worker_id=1, sink=log.record_event)
            ledger.emit("counter", "cache.hits")
            ledger.emit("counter", "cache.hits")
            ledger.emit("counter", "cache.misses", value=2)
            ledger.emit("gauge", "g", value=1.5)
            ledger.emit("gauge", "g")
            ledger.emit("gauge", "h")
        return path

    def test_every_reader_agrees(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = self._log(tmp_path)

        def run(*argv):
            assert main(list(argv)) == 0
            return capsys.readouterr().out

        stats = json.loads(run("log", "stats", path))
        assert stats["counters"] == {"cache.hits": 2, "cache.misses": 2}
        assert stats["cache_hit_rate"] == 0.5
        assert "cache hit rate: 50.0% (2 hits, 0 alias, 2 misses)" in run(
            "trace", path
        )
        prom = run("metrics", "export", path)
        assert "repro_cache_hits_total 2\n" in prom
        assert "repro_g 1.5\n" in prom
        assert "repro_h" not in prom
        assert "counters: cache.hits=2  cache.misses=2" in run(
            "log", "replay", path, "--at", "99"
        )
