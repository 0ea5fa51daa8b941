"""Tests for the export adapters: Prometheus text and Chrome traces.

Both adapters are pure functions of recorded data, so the committed
golden world log (``tests/worldlog/golden/run.worldlog``) doubles as
their round-trip fixture: the fold of its ledger events must render an
exposition that parses line-by-line as Prometheus text, and
a span tree whose Chrome trace balances every ``B`` with an ``E`` on
the same track.
"""

import json
import os
import re

from repro.obs.export import chrome_trace, metric_name, render_prometheus
from repro.obs.ledger import LedgerEvent
from repro.obs.report import LedgerFold, SpanTotal
from repro.worldlog.store import read_worldlog
from repro.worldlog.views import ledger_events

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir,
    "worldlog",
    "golden",
    "run.worldlog",
)

# One exposition line: "<name>{...} <value>" — we emit no labels, so
# "<name> <value>" with a float-or-int-or-NaN value.
_SAMPLE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]* (NaN|-?\d+(\.\d+)?([eE]-?\d+)?)$"
)


def _event(kind, name, ts=0.0, value=None, worker=1, cell=None):
    return LedgerEvent(
        kind=kind,
        name=name,
        ts=ts,
        value=value,
        run_id="test",
        cell_id=cell,
        worker_id=worker,
    )


def _golden_events():
    return ledger_events(read_worldlog(GOLDEN))


class TestRegistryFromEvents:
    """:class:`LedgerFold`, the fold ``metrics export`` renders."""

    def test_counters_sum_and_gauges_last_write(self):
        fold = LedgerFold.of(
            [
                _event("counter", "engine.round", value=2),
                _event("counter", "engine.round"),  # None => +1
                _event("gauge", "bound.vs_floor", value=1.0),
                _event("gauge", "bound.vs_floor", value=2.5),
                _event("gauge", "bound.floor"),  # None => ignored
            ]
        )
        assert fold.counters == {"engine.round": 3}
        assert fold.gauges == {"bound.vs_floor": 2.5}
        assert fold.spans == {}

    def test_span_pairs_become_duration_histograms(self):
        fold = LedgerFold.of(
            [
                _event("span-start", "attack", ts=1.0),
                _event("span-start", "fault-free", ts=2.0),
                _event("span-end", "fault-free", ts=5.0),
                _event("span-start", "fault-free", ts=6.0),
                _event("span-end", "fault-free", ts=7.0),
                _event("span-end", "attack", ts=10.0),
            ]
        )
        # First-close order: the exposition lists fault-free first.
        assert list(fold.spans.items()) == [
            ("fault-free", SpanTotal(count=2, seconds=4.0, low=1.0, high=3.0)),
            ("attack", SpanTotal(count=1, seconds=9.0, low=9.0, high=9.0)),
        ]

    def test_streams_do_not_cross_workers(self):
        # A span closed by a different worker pairs with nothing.
        fold = LedgerFold.of(
            [
                _event("span-start", "attack", ts=0.0, worker=1),
                _event("span-end", "attack", ts=9.0, worker=2),
            ]
        )
        assert fold.spans == {}


class TestPrometheus:
    def test_metric_name_sanitizes(self):
        assert metric_name("engine.round_seconds") == (
            "repro_engine_round_seconds"
        )
        assert metric_name("span.fault-free_seconds") == (
            "repro_span_fault_free_seconds"
        )
        assert metric_name("9lives", prefix="") == "_9lives"

    def test_counter_gauge_histogram_line_shapes(self):
        lines = render_prometheus(
            LedgerFold.of(
                [
                    _event("counter", "cache.hits", value=3),
                    _event("gauge", "bound.vs_floor", value=1.5),
                    _event("span-start", "round", ts=0.0),
                    _event("span-end", "round", ts=0.25),
                    _event("span-start", "round", ts=1.0),
                    _event("span-end", "round", ts=1.75),
                ]
            )
        ).split("\n")
        assert "repro_cache_hits_total 3" in lines
        assert "# TYPE repro_cache_hits_total counter" in lines
        assert "repro_bound_vs_floor 1.5" in lines
        assert "# TYPE repro_span_round_seconds summary" in lines
        assert "repro_span_round_seconds_count 2" in lines
        assert "repro_span_round_seconds_sum 1" in lines
        assert "repro_span_round_seconds_min 0.25" in lines
        assert "repro_span_round_seconds_max 0.75" in lines

    def test_every_line_is_comment_or_valid_sample(self):
        document = render_prometheus(LedgerFold.of(_golden_events()))
        assert document.endswith("\n")
        for line in document.rstrip("\n").split("\n"):
            assert line.startswith("#") or _SAMPLE.match(line), line

    def test_golden_exposition_carries_the_round_counter(self):
        document = render_prometheus(LedgerFold.of(_golden_events()))
        assert "repro_engine_round_total" in document
        assert "repro_span_attack_seconds_count 1" in document


class TestChromeTrace:
    def test_golden_trace_shape_and_balance(self):
        trace = chrome_trace(list(_golden_events()))
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert events, "golden trace came out empty"
        for entry in events:
            assert entry["ph"] in ("B", "E", "C", "M")
            assert isinstance(entry["pid"], int)
            assert isinstance(entry["tid"], int)
        # B/E balance per (pid, tid) track, LIFO order.
        stacks = {}
        for entry in events:
            track = (entry["pid"], entry["tid"])
            if entry["ph"] == "B":
                stacks.setdefault(track, []).append(entry["name"])
            elif entry["ph"] == "E":
                assert stacks[track].pop() == entry["name"]
        assert all(not stack for stack in stacks.values())

    def test_metadata_names_every_track(self):
        trace = chrome_trace(list(_golden_events()))
        events = trace["traceEvents"]
        named = {
            (entry["pid"], entry["tid"])
            for entry in events
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        used = {
            (entry["pid"], entry["tid"])
            for entry in events
            if entry["ph"] in ("B", "E", "C")
        }
        assert used <= named

    def test_timestamps_scale_to_microseconds(self):
        trace = chrome_trace(
            [
                _event("span-start", "attack", ts=1.5),
                _event("span-end", "attack", ts=2.0),
            ]
        )
        spans = [
            entry
            for entry in trace["traceEvents"]
            if entry["ph"] in ("B", "E")
        ]
        assert [entry["ts"] for entry in spans] == [1.5e6, 2.0e6]

    def test_counter_samples_carry_their_value(self):
        trace = chrome_trace(
            [_event("counter", "engine.round", ts=1.0, value=7)]
        )
        samples = [
            entry
            for entry in trace["traceEvents"]
            if entry["ph"] == "C"
        ]
        assert samples[0]["args"] == {"engine.round": 7}

    def test_document_is_json_serializable(self):
        json.dumps(chrome_trace(list(_golden_events())))


class TestRecordedRunShapes:
    """Both exports at the size of a recorded sweep (many cells)."""

    CELLS = 96
    ROUNDS_PER_CELL = 16

    def _recorded_events(self):
        """A span-and-counter stream shaped like a recorded attack run."""
        events = []
        clock = 0.0

        def emit(kind, name, value=None, cell=None):
            events.append(
                LedgerEvent(
                    kind=kind,
                    name=name,
                    ts=clock,
                    value=value,
                    run_id="recorded",
                    cell_id=cell,
                    worker_id=1,
                )
            )

        for index in range(self.CELLS):
            cell = f"cell/{index:03d}"
            emit("span-start", "attack", cell=cell)
            for _ in range(self.ROUNDS_PER_CELL):
                clock += 0.001
                emit("counter", "engine.round", value=1, cell=cell)
            emit("gauge", "cell.wall_seconds", value=0.016, cell=cell)
            clock += 0.001
            emit("span-end", "attack", cell=cell)
        return events

    def test_prometheus_exposition_of_a_recorded_run(self):
        document = render_prometheus(
            LedgerFold.of(self._recorded_events())
        )
        rounds = self.CELLS * self.ROUNDS_PER_CELL
        assert f"repro_engine_round_total {rounds}" in document
        assert (
            f"repro_span_attack_seconds_count {self.CELLS}" in document
        )

    def test_chrome_trace_of_a_recorded_run(self):
        trace = chrome_trace(self._recorded_events())
        spans = [
            entry
            for entry in trace["traceEvents"]
            if entry["ph"] in ("B", "E")
        ]
        assert len(spans) == 2 * self.CELLS
