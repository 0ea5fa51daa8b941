"""The semantic log differ: what counts as "the same run".

The acceptance bar from the time-travel issue: ``diff_logs`` must be
empty for (a) a log against itself, (b) two runs of the same matrix,
and (c) an uninterrupted run vs its killed-and-resumed twin — while a
*real* divergence (different values, different record order, a
differing ``engine.*`` counter) is reported at its first aligned
position with both payloads rendered.
"""

import json
import os

import pytest

from repro.worldlog import Record, WorldLog, diff_logs, read_worldlog
from repro.worldlog.diffing import (
    comparable_records,
    scrub_payload,
)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_LOG = os.path.join(HERE, "golden", "run.worldlog")


def _attack_log(path):
    """One recorded attack run (the CLI's ``--ledger *.worldlog`` path)."""
    from repro.lowerbound.driver import attack_weak_consensus
    from repro.obs.ledger import RunLedger
    from repro.obs.tracer import LedgerTracer
    from repro.protocols.subquadratic import silent_cheater_spec

    with WorldLog.create(str(path)) as worldlog:
        ledger = RunLedger(sink=worldlog.record_event)
        attack_weak_consensus(
            silent_cheater_spec(8, 4),
            certify=True,
            tracer=LedgerTracer(ledger),
            worldlog=worldlog,
        )
    return read_worldlog(str(path))


class TestEmptyDiffs:
    def test_log_vs_itself(self):
        records = read_worldlog(GOLDEN_LOG)
        report = diff_logs(records, records)
        assert report.ok
        assert report.divergence is None
        assert report.compared == len(records)
        assert "semantically identical" in report.render()

    def test_two_runs_of_the_same_matrix(self, tmp_path):
        """Timing-only divergence (fresh wall clocks, pids) is ignored;
        the engine counters compare by value and still agree."""
        from repro.worldlog.replay import log_stats

        a = _attack_log(tmp_path / "a.worldlog")
        b = _attack_log(tmp_path / "b.worldlog")
        assert log_stats(a)["counters"]["engine.masks_built"] > 0
        report = diff_logs(a, b)
        assert report.ok, report.render()

    def test_two_sweeps_with_different_heartbeat_counts(self):
        """``cell.heartbeat`` values were wall-clock telemetry: in logs
        written before the counter was retired, a cell that outlasted
        two heartbeats aligns with one that outlasted none."""
        cells = ("measure/silent/n8/t4", "measure/ic/n5/t1")

        def sweep_log(beats, wall, done=1):
            def event(tick, kind, name, value, cell):
                return Record(
                    tick=tick,
                    kind="ledger.event",
                    payload={"ts": float(tick), "kind": kind,
                             "name": name, "value": value,
                             "run_id": "r", "cell_id": cell,
                             "worker_id": 1, "attrs": {}},
                    run_id="r",
                )

            records = [Record(tick=0, kind="gather.start",
                              payload={"cells": len(cells)}, run_id="r")]
            for index, cell in enumerate(cells):
                tick = 1 + 4 * index
                records += [
                    event(tick, "counter", "cell.start", 1, cell),
                    event(tick + 1, "counter", "cell.heartbeat", beats,
                          cell),
                    event(tick + 2, "gauge", "cell.wall_seconds", wall,
                          cell),
                    event(tick + 3, "counter", "cell.done", done, cell),
                ]
            return records

        report = diff_logs(
            sweep_log(beats=2, wall=2.5), sweep_log(beats=0, wall=0.01)
        )
        assert report.ok, report.render()
        # A counter that is not wall clock still compares by value.
        report = diff_logs(
            sweep_log(beats=2, wall=2.5),
            sweep_log(beats=2, wall=2.5, done=2),
        )
        assert not report.ok
        assert "payloads diverged" in report.divergence.reason

    def test_uninterrupted_vs_resumed_twin(self):
        """A crash mid-gather leaves stale events + an extra marker.

        On resume the scheduler re-splices *every* event after a fresh
        ``gather.start``; the differ applies the derived ledger view's
        after-last-gather rule, so the twins align empty.
        """
        records = read_worldlog(GOLDEN_LOG)
        header, rest = records[:1], records[1:]

        def event(tick, name):
            return Record(
                tick=tick,
                kind="ledger.event",
                payload={"ts": 0.5, "kind": "counter", "name": name,
                         "value": 1, "run_id": "golden",
                         "cell_id": None, "worker_id": 9, "attrs": {}},
                run_id="golden",
                worker_id=9,
            )

        uninterrupted = (
            header
            + [Record(tick=1, kind="gather.start", payload={},
                      run_id="golden")]
            + [r for r in rest]
        )
        # The twin: a partial stale splice, then the resume's fresh
        # marker and the full splice.
        resumed = (
            header
            + [Record(tick=1, kind="gather.start", payload={},
                      run_id="other")]
            + [event(2, "stale.partial"), event(3, "stale.partial")]
            + [Record(tick=4, kind="gather.start", payload={},
                      run_id="other")]
            + [r for r in rest]
        )
        report = diff_logs(uninterrupted, resumed)
        assert report.ok, report.render()
        assert report.skipped_b > report.skipped_a


class TestGatherRule:
    def test_differ_and_ledger_view_keep_the_same_events(self):
        """With two ``gather.start`` markers, the differ and the
        derived ledger view both keep only the events after the last."""
        from repro.worldlog.replay import replay_state
        from repro.worldlog.views import ledger_lines

        def record(tick, kind, name=None):
            payload = {} if name is None else {
                "ts": float(tick), "kind": "counter", "name": name,
                "value": 1, "run_id": "r", "cell_id": None,
                "worker_id": 1, "attrs": {},
            }
            return Record(tick=tick, kind=kind, payload=payload, run_id="r")

        records = [
            record(0, "log.open"),
            record(1, "gather.start"),
            record(2, "ledger.event", "stale.first"),
            record(3, "ledger.event", "stale.second"),
            record(4, "gather.start"),
            record(5, "ledger.event", "kept.first"),
            record(6, "ledger.event", "kept.second"),
        ]
        kept = [
            json.dumps(r.payload)
            for r in comparable_records(records)
            if r.kind == "ledger.event"
        ]
        assert kept == ledger_lines(replay_state(records))
        assert [json.loads(line)["name"] for line in kept] == [
            "kept.first", "kept.second",
        ]


class TestRealDivergence:
    def test_payload_divergence_reports_both_sides(self):
        records = read_worldlog(GOLDEN_LOG)
        mutated = list(records)
        for index, record in enumerate(mutated):
            if (
                record.kind == "ledger.event"
                and record.payload.get("name") == "cache.hits"
            ):
                payload = dict(record.payload)
                payload["value"] = 9999
                mutated[index] = Record(
                    tick=record.tick, kind=record.kind, payload=payload,
                    run_id=record.run_id, cell_id=record.cell_id,
                    worker_id=record.worker_id,
                )
                break
        report = diff_logs(records, mutated)
        assert not report.ok
        assert "payloads diverged" in report.divergence.reason
        rendered = report.render("left.worldlog", "right.worldlog")
        assert "left.worldlog" in rendered
        assert "right.worldlog" in rendered
        assert "9999" in rendered
        assert "cache.hits" in rendered

    def test_order_divergence(self):
        records = read_worldlog(GOLDEN_LOG)
        swapped = list(records)
        # Swap two adjacent ledger events with different names.
        swapped[2], swapped[3] = swapped[3], swapped[2]
        report = diff_logs(records, swapped)
        assert not report.ok
        assert "record order diverged" in report.divergence.reason

    def test_extra_records_diverge(self):
        records = read_worldlog(GOLDEN_LOG)
        report = diff_logs(records, records[:-2])
        assert not report.ok
        assert "extra record(s)" in report.divergence.reason
        assert report.divergence.index == len(
            comparable_records(records[:-2])
        )


class TestScrub:
    @pytest.mark.parametrize("key", [
        "ts", "seconds", "wall_seconds", "unix_time", "run_id",
        "worker_id",
    ])
    def test_wall_clock_and_identity_keys_dropped(self, key):
        assert scrub_payload({key: 1, "keep": 2}) == {"keep": 2}

    def test_scrub_recurses_into_results_and_events(self):
        payload = {
            "key": "k0",
            "result": {
                "wall_seconds": 1.25,
                "value": {"rounds": 7},
                "events": [{"ts": 3.0, "name": "attack"}],
            },
        }
        assert scrub_payload(payload) == {
            "key": "k0",
            "result": {
                "value": {"rounds": 7},
                "events": [{"name": "attack"}],
            },
        }

    @pytest.mark.parametrize("name", [
        "engine.machine_snapshots", "engine.masks_built", "engine.popcounts",
    ])
    def test_engine_metric_value_divergence_reported(self, name):
        def counter(value):
            return Record(
                tick=3, kind="ledger.event",
                payload={"ts": 0.0, "kind": "counter", "name": name,
                         "value": value, "attrs": {}},
                run_id="r",
            )

        # The timestamp is wall clock and goes; the value stays.
        payload = counter(42).payload
        assert scrub_payload(payload) == {
            key: value for key, value in payload.items() if key != "ts"
        }
        assert diff_logs([counter(42)], [counter(42)]).ok
        report = diff_logs([counter(42)], [counter(43)])
        assert not report.ok
        assert "payloads diverged" in report.divergence.reason

    def test_wall_clock_metric_values_nulled(self):
        payload = {
            "kind": "gauge", "name": "engine.round_seconds",
            "value": 0.123,
            "attrs": {"count": 6, "min": 0.1, "max": 0.2, "total": 0.6},
        }
        assert scrub_payload(payload) == {
            "kind": "gauge", "name": "engine.round_seconds",
            "attrs": {"count": 6},
        }

    def test_deterministic_content_survives(self):
        payload = {"kind": "counter", "name": "cache.hits", "value": 2,
                   "attrs": {"round": 1}}
        assert scrub_payload(payload) == payload

    def test_certificate_text_compares_verbatim(self):
        text = json.dumps({"schema": "repro.cert/v1", "witness": [1, 2]})
        a = Record(tick=5, kind="cert.artifact",
                   payload={"label": "x", "text": text}, run_id="a")
        b = Record(tick=9, kind="cert.artifact",
                   payload={"label": "x", "text": text + " "}, run_id="b")
        assert diff_logs([a], [a]).ok
        assert not diff_logs([a], [b]).ok
