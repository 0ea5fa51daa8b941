"""Tests for trace rendering."""

from repro.obs.ledger import RunLedger
from repro.obs.report import build_span_tree, render_trace


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
        tree = build_span_tree(_sample_ledger().events)
        attack = tree.children["attack"]
        assert attack.count == 1
        assert "fault-free" in attack.children
        # fault-free: started at ts=1, ended at ts=4.
        assert attack.children["fault-free"].seconds == 3.0

    def test_same_name_spans_aggregate(self):
        ticks = iter(float(i) for i in range(10))
        ledger = RunLedger(
            run_id="r", worker_id=1, clock=lambda: next(ticks)
        )
        for _ in range(2):
            ledger.emit("span-start", "scan")
            ledger.emit("span-end", "scan")
        tree = build_span_tree(ledger.events)
        assert tree.children["scan"].count == 2
        assert tree.children["scan"].seconds == 2.0


class TestRenderTrace:
    def test_contains_all_sections(self):
        text = render_trace(_sample_ledger().events)
        assert "phase tree" in text
        assert "attack" in text
        assert "slowest" in text
        assert "cache hit rate: 50.0%" in text
        assert "messages / (t²/32): 5.000" in text

    def test_slowest_rounds_ranked_by_wall_time(self):
        text = render_trace(_sample_ledger().events, slowest=1)
        # Round 2 (4 ms) outranks round 1 (1 ms).
        assert "slowest 1 rounds" in text
        slowest_section = text.split("slowest 1 rounds:")[1]
        assert "4000.0" in slowest_section

    def test_empty_ledger_renders(self):
        assert "0 events" in render_trace([])
