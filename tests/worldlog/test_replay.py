"""The replay cursor and its trust theorem.

Time travel is only trustworthy if the cursor's materialized state at
tick T is *the same thing* the derived views would compute from the
record prefix up to T.  ``TestPrefixInvariant`` pins that theorem
against every prefix of the committed golden fixture; the rest covers
cursor navigation (``next``/``prev``/``seek`` with snapshots), the
shared record-selection logic behind ``log show``, and the post-hoc
stats extractor.
"""

import json
import os

from repro.worldlog import (
    Record,
    ReplayCursor,
    log_stats,
    read_worldlog,
    replay_state,
    select_records,
)
from repro.worldlog.views import (
    certificate_texts,
    jobs_manifest,
    ledger_lines,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_LOG = os.path.join(HERE, "golden", "run.worldlog")


def _golden():
    return read_worldlog(GOLDEN_LOG)


class TestPrefixInvariant:
    def test_cursor_state_equals_pure_fold_at_every_position(self):
        """``cursor.state`` ≡ ``replay_state(records[:k])`` for all k."""
        records = _golden()
        cursor = ReplayCursor(records, snapshot_every=7)
        assert cursor.state == replay_state([])
        for k in range(1, len(records) + 1):
            cursor.next()
            assert cursor.state == replay_state(records[:k]), (
                f"cursor diverged from the pure fold at position {k}"
            )

    def test_state_agrees_with_derived_views_at_every_prefix(self):
        """The state's fields match the derived views of the prefix."""
        records = _golden()
        for k in range(len(records) + 1):
            prefix = records[:k]
            state = replay_state(prefix)
            # ledger view: the events the state accumulated are exactly
            # the derived ledger lines (after-last-gather rule shared).
            assert [
                json.dumps(payload) for payload in state.events
            ] == ledger_lines(replay_state(prefix))
            # certificates view.
            assert state.certificates == list(certificate_texts(prefix))
            # jobs view: same keys, same states.
            manifest = jobs_manifest(prefix)
            assert {
                entry["key"]: entry["state"]
                for entry in manifest["jobs"]
            } == {
                key: entry["state"]
                for key, entry in state.jobs.items()
            }

    def test_seek_by_tick_matches_prefix_fold(self):
        records = _golden()
        cursor = ReplayCursor(records, snapshot_every=5)
        for record in records:
            state = cursor.seek(record.tick)
            prefix = [r for r in records if r.tick <= record.tick]
            assert state == replay_state(prefix)


def _sweep_like_records():
    """A small synthetic sweep log exercising every state family."""
    rows = [
        ("log.open", {"schema": "repro.worldlog/v1"}, None),
        ("job.submitted", {"key": "s0", "tenant": "sweep",
                           "priority": 0, "job": {"k": 0}}, "cell/a"),
        ("job.submitted", {"key": "s1", "tenant": "sweep",
                           "priority": 0, "job": {"k": 1}}, "cell/b"),
        ("job.result", {"key": "s0", "result": {}}, "cell/a"),
        ("job.error", {"key": "s1", "error_kind": "x", "message": "m",
                       "detail": "", "wall_seconds": 1.0}, "cell/b"),
        ("gather.start", {}, None),
        ("ledger.event", {"ts": 0.0, "kind": "span-start",
                          "name": "attack", "value": None,
                          "run_id": "r", "cell_id": "cell/a",
                          "worker_id": 3, "attrs": {}}, "cell/a"),
        ("ledger.event", {"ts": 1.0, "kind": "counter",
                          "name": "engine.round", "value": 4,
                          "run_id": "r", "cell_id": "cell/a",
                          "worker_id": 3,
                          "attrs": {"round": 1, "run": 0,
                                    "cum_messages": 4,
                                    "vs_floor": 0.5}}, "cell/a"),
        ("job.submitted", {"key": "k1", "tenant": "alice",
                           "priority": 0, "job": {}}, "job/x"),
        ("job.start", {"key": "k1"}, "job/x"),
        ("job.rejected", {"key": "k2", "tenant": "alice",
                          "kind": "quota", "reason": "full"}, "job/y"),
    ]
    return [
        Record(tick=tick, kind=kind, payload=payload,
               run_id="r", cell_id=cell, worker_id=3)
        for tick, (kind, payload, cell) in enumerate(rows)
    ]


class TestReplayState:
    def test_live_cells_pending_jobs_and_rejections(self):
        state = replay_state(_sweep_like_records())
        sweep = {key: entry for key, entry in state.jobs.items()
                 if entry["tenant"] == "sweep"}
        assert len(sweep) == 2
        assert sweep["s0"]["state"] == "done"
        assert sweep["s1"]["state"] == "failed"
        assert {"cell/a", "cell/b"} <= state.cells_terminal
        # cell/a produced post-gather events but already has its
        # terminal record; the job cells are live/rejected.
        assert state.live_cells == ["job/x"]
        assert list(state.pending_jobs) == ["k1"]
        assert state.jobs["k1"]["state"] == "running"
        assert state.rejections == {"alice": {"quota": 1}}
        assert state.ledger.open_spans == [(3, "cell/a", ["attack"])]
        assert len(state.ledger.rounds) == 1
        assert state.ledger.messages == 4
        assert state.ledger.vs_floor == 0.5

    def test_gather_resets_event_derived_state_only(self):
        records = _sweep_like_records()
        gathered = records + [
            Record(tick=len(records), kind="gather.start", payload={},
                   run_id="r")
        ]
        state = replay_state(gathered)
        assert state.events == []
        assert state.ledger.counters == {}
        assert state.ledger.open_spans == []
        assert state.ledger.rounds == []
        # Envelope-derived bookkeeping survives the reset.
        assert state.jobs["s0"]["state"] == "done"
        assert state.jobs["k1"]["state"] == "running"


class TestReplayCursor:
    def test_forward_then_backward_round_trip(self):
        records = _golden()
        cursor = ReplayCursor(records, snapshot_every=4)
        while cursor.next() is not None:
            pass
        assert cursor.position == len(records)
        seen = []
        while True:
            record = cursor.prev()
            if record is None:
                break
            seen.append(record)
        assert cursor.position == 0
        assert cursor.state == replay_state([])
        assert seen == list(reversed(records))

    def test_seek_clamps_to_both_ends(self):
        records = _golden()
        cursor = ReplayCursor(records)
        end = cursor.seek(10**9)
        assert cursor.position == len(records)
        assert end == replay_state(records)
        start = cursor.seek(-1)
        assert cursor.position == 0
        assert start == replay_state([])

    def test_next_and_prev_return_the_record_they_cross(self):
        records = _golden()
        cursor = ReplayCursor(records)
        assert cursor.prev() is None
        assert cursor.next() == records[0]
        cursor.seek(records[-1].tick)
        assert cursor.next() is None
        assert cursor.prev() == records[-1]


class TestSelectRecords:
    def test_filters_compose_and_tail_applies_last(self):
        records = _golden()
        events = select_records(records, kinds=["ledger.event"])
        assert all(r.kind == "ledger.event" for r in events)
        tail = select_records(records, kinds=["ledger.event"], tail=3)
        assert tail == events[-3:]
        assert select_records(records, kinds=["ledger.event"], tail=0) == []
        assert select_records(records, runs=["golden"]) == records
        assert select_records(records, runs=["nope"]) == []

    def test_cell_filter(self):
        records = _sweep_like_records()
        cells = select_records(records, cells=["cell/a"])
        assert {r.cell_id for r in cells} == {"cell/a"}


class TestLogStats:
    def test_trend_shaped_document_from_the_golden_log(self):
        records = _golden()
        document = log_stats(records, now=123.0)
        assert document["schema"] == "repro.logstats/v1"
        assert document["label"] == "log/golden"
        assert document["ts"] == 123.0
        assert document["records"] == len(records)
        assert document["events"] == len(
            [r for r in records if r.kind == "ledger.event"]
        )
        assert document["rounds_simulated"] == 6
        assert document["certificates"] == 1
        # Certificate verify time = witness-verify + certify spans
        # (the golden clock ticks one second per event).
        assert document["certificate_verify_seconds"] == 2.0
        assert document["spans"]["attack"]["count"] == 1
        # cache: 2 hits + 1 alias over 8 lookups (committed fixture).
        assert 0 < document["cache_hit_rate"] < 1

    def test_extraction_depends_on_the_log_alone(self):
        records = _golden()
        a = log_stats(records, now=1.0)
        b = log_stats(records, now=2.0)
        assert a.pop("ts") == 1.0
        assert b.pop("ts") == 2.0
        assert a == b

    def test_tenant_accounting_includes_rejections(self):
        document = log_stats(_sweep_like_records())
        assert document["tenants"]["alice"]["submitted"] == 1
        assert document["tenants"]["alice"]["pending"] == 1
        assert document["tenants"]["alice"]["rejected"] == {"quota": 1}

    @staticmethod
    def _cells_document(count):
        """``log_stats`` over ``count`` cells; cell ``i`` sends ``i + 1``."""
        rows = [("log.open", {"schema": "repro.worldlog/v1"}, None)]
        for index in range(count):
            cell = f"cell/{index}"
            rows.append(
                ("ledger.event",
                 {"ts": float(index), "kind": "counter",
                  "name": "engine.round", "value": index + 1,
                  "run_id": "r", "cell_id": cell, "worker_id": 1,
                  "attrs": {}}, cell)
            )
            rows.append(
                ("ledger.event",
                 {"ts": float(index), "kind": "gauge",
                  "name": "cell.wall_seconds", "value": 0.1 * (index + 1),
                  "run_id": "r", "cell_id": cell, "worker_id": 1,
                  "attrs": {}}, cell)
            )
        records = [
            Record(tick=tick, kind=kind, payload=payload, run_id="r",
                   cell_id=cell)
            for tick, (kind, payload, cell) in enumerate(rows)
        ]
        return log_stats(records)

    def test_per_cell_percentiles(self):
        document = self._cells_document(4)
        assert set(document["cells"]) == {f"cell/{i}" for i in range(4)}
        assert document["cells"]["cell/3"]["messages"] == 4
        marks = document["percentiles"]["messages"]
        assert marks["max"] == 4
        assert marks["p50"] == 2
        # Nearest rank is ceil(p * n): on five cells the median is the
        # third, and p90 (rank 4.5) rounds up to the fifth.
        marks = self._cells_document(5)["percentiles"]["messages"]
        assert (marks["p50"], marks["p90"], marks["p99"]) == (3, 5, 5)


class TestSelectRecordsStreaming:
    """``tail`` must stream: a bounded deque, not a materialized list."""

    def test_tail_over_a_lazy_source_keeps_only_the_window(self):
        count = 200_000

        def source():
            for tick in range(count):
                yield Record(tick=tick, kind="checkpoint",
                             payload={"i": tick}, run_id="r")

        tail = select_records(source(), tail=5)
        assert [record.payload["i"] for record in tail] == [
            count - 5, count - 4, count - 3, count - 2, count - 1,
        ]

    def test_tail_composes_with_filters_over_a_generator(self):
        def source():
            for tick in range(1000):
                kind = "ledger.event" if tick % 2 else "checkpoint"
                yield Record(tick=tick, kind=kind, payload={},
                             run_id="r")

        tail = select_records(source(), kinds=["ledger.event"], tail=3)
        assert [record.tick for record in tail] == [995, 997, 999]

    def test_tail_larger_than_the_log_keeps_everything(self):
        records = [
            Record(tick=tick, kind="checkpoint", payload={})
            for tick in range(4)
        ]
        assert select_records(iter(records), tail=100) == records
        assert select_records(iter(records), tail=0) == []


CELLS = 48
ROUNDS_PER_CELL = 24


def _synthetic_sweep_log(run_id, jitter):
    """A deterministic sweep-shaped log (~2.5k records).

    Plan, per-cell span and round events, terminal records, then the
    gather splice.  ``jitter`` perturbs only wall-clock payload fields
    (timestamps and per-round seconds), never semantic content, so two
    builds with different jitter must diff empty.
    """
    records = []

    def append(kind, payload, cell_id=None):
        records.append(
            Record(
                tick=len(records),
                kind=kind,
                payload=payload,
                run_id=run_id,
                cell_id=cell_id,
                worker_id=1,
            )
        )

    def event(ts, kind, name, value, cell, attrs):
        return {
            "ts": ts + jitter,
            "kind": kind,
            "name": name,
            "value": value,
            "run_id": run_id,
            "cell_id": cell,
            "worker_id": 1,
            "attrs": attrs,
        }

    append("log.open", {"schema": "repro.worldlog/v1"})
    for index in range(CELLS):
        append(
            "job.submitted",
            {"key": f"k{index:03d}", "tenant": "sweep", "priority": 0,
             "job": {"index": index}},
            f"cell/{index:03d}",
        )
    clock = 0.0
    splice = []
    for index in range(CELLS):
        cell = f"cell/{index:03d}"
        cell_events = [event(clock, "span-start", "attack", None, cell, {})]
        messages = 0
        for round_index in range(ROUNDS_PER_CELL):
            clock += 0.001
            messages += round_index % 5
            cell_events.append(
                event(
                    clock,
                    "counter",
                    "engine.round",
                    round_index % 5,
                    cell,
                    {
                        "round": round_index,
                        "run": 0,
                        "seconds": 0.001 + jitter,
                        "cum_messages": messages,
                        "vs_floor": messages / 32.0,
                    },
                )
            )
        clock += 0.001
        cell_events.append(
            event(clock, "counter", "cache.hits", index % 3, cell, {})
        )
        cell_events.append(
            event(clock, "gauge", "cell.wall_seconds", 0.5 + jitter, cell, {})
        )
        cell_events.append(event(clock, "span-end", "attack", None, cell, {}))
        splice.extend((payload, cell) for payload in cell_events)
        append(
            "job.result",
            {"key": f"k{index:03d}",
             "result": {"wall_seconds": 0.5 + jitter}},
            cell,
        )
    append("gather.start", {})
    for payload, cell in splice:
        append("ledger.event", payload, cell)
    return records


class TestSweepShapedLog:
    """Cursor and differ claims over a whole sweep-sized log."""

    def test_forward_replay_sees_every_cell_event_and_round(self):
        records = _synthetic_sweep_log("sweep-a", jitter=0.0)
        cursor = ReplayCursor(records)
        while cursor.next() is not None:
            pass
        assert cursor.position == len(records)
        state = cursor.state
        assert [entry["state"] for entry in state.jobs.values()] == [
            "done"
        ] * CELLS
        assert len(state.events) == sum(
            1 for r in records if r.kind == "ledger.event"
        )
        assert len(state.ledger.rounds) == CELLS * ROUNDS_PER_CELL

    def test_backward_seeks_across_the_whole_log(self):
        records = _synthetic_sweep_log("sweep-a", jitter=0.0)
        cursor = ReplayCursor(records)
        last_tick = records[-1].tick
        cursor.seek(last_tick)
        for tick in range(last_tick, 0, -max(1, last_tick // 64)):
            assert cursor.seek(tick).tick <= tick
        state = cursor.seek(1)
        assert state.position == 2
        assert replay_state(records[:2]) == state

    def test_timing_only_twins_diff_empty(self):
        from repro.worldlog import diff_logs

        a = _synthetic_sweep_log("sweep-a", jitter=0.0)
        b = _synthetic_sweep_log("sweep-b", jitter=0.125)
        report = diff_logs(a, b)
        assert report.ok, report.render()
        assert report.compared == len(a) - 1  # gather marker dropped
