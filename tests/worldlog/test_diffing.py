"""The semantic log differ: what counts as "the same run".

The acceptance bar from the time-travel issue: ``diff_logs`` must be
empty for (a) a log against itself, (b) object-engine vs mask-kernel
runs of the same matrix, and (c) an uninterrupted run vs its
killed-and-resumed twin — while a *real* divergence (different values,
different record order) is reported at its first aligned position with
both payloads rendered.
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


def _attack_log(path, kernel="mask"):
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
            kernel=kernel,
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
        """Timing-only divergence (fresh wall clocks, pids) is ignored."""
        a = _attack_log(tmp_path / "a.worldlog")
        b = _attack_log(tmp_path / "b.worldlog")
        report = diff_logs(a, b)
        assert report.ok, report.render()

    def test_object_vs_mask_kernel_runs(self, tmp_path):
        from repro.worldlog.replay import log_stats

        a = _attack_log(tmp_path / "object.worldlog", kernel="object")
        b = _attack_log(tmp_path / "mask.worldlog", kernel="mask")
        # Tracing must not switch engines, or this compares one engine
        # with itself.
        assert log_stats(a)["counters"]["engine.masks_built"] == 0
        assert log_stats(b)["counters"]["engine.masks_built"] > 0
        report = diff_logs(a, b)
        assert report.ok, report.render()

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
            "index": 0,
            "result": {
                "wall_seconds": 1.25,
                "value": {"rounds": 7},
                "events": [{"ts": 3.0, "name": "attack"}],
            },
        }
        assert scrub_payload(payload) == {
            "index": 0,
            "result": {
                "value": {"rounds": 7},
                "events": [{"name": "attack"}],
            },
        }

    @pytest.mark.parametrize("name", [
        "engine.machine_snapshots", "engine.masks_built", "engine.popcounts",
    ])
    def test_engine_metric_values_nulled(self, name):
        payload = {"kind": "counter", "name": name, "value": 42,
                   "attrs": {}}
        assert scrub_payload(payload) == {
            "kind": "counter", "name": name, "attrs": {},
        }

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


class TestTelemetryTwins:
    """Telemetry is observability-only: twins diff empty (PR 10 bar)."""

    def _run(self, path, telemetry_interval=None):
        from repro.lowerbound.driver import attack_weak_consensus
        from repro.obs.ledger import RunLedger
        from repro.obs.telemetry import TelemetryBus
        from repro.obs.tracer import LedgerTracer
        from repro.protocols.subquadratic import silent_cheater_spec

        with WorldLog.create(str(path)) as worldlog:
            bus = None
            if telemetry_interval is not None:
                bus = TelemetryBus(
                    worldlog,
                    interval=telemetry_interval,
                    source="attack",
                )
            ledger = RunLedger(sink=worldlog.record_event)
            attack_weak_consensus(
                silent_cheater_spec(8, 4),
                certify=True,
                tracer=LedgerTracer(ledger),
                worldlog=worldlog,
                telemetry=bus,
            )
            if bus is not None:
                bus.close()
        return read_worldlog(str(path))

    def test_telemetry_on_vs_off_twins_diff_empty(self, tmp_path):
        plain = self._run(tmp_path / "plain.worldlog")
        noisy = self._run(
            tmp_path / "noisy.worldlog", telemetry_interval=1e-9
        )
        # The twin must actually carry snapshots, or this pins nothing.
        snaps = [r for r in noisy if r.kind == "telemetry.snapshot"]
        assert snaps, "telemetry run produced no snapshots"
        report = diff_logs(plain, noisy)
        assert report.ok, report.render()

    def test_comparable_records_drop_snapshots(self):
        from repro.worldlog.diffing import OBSERVABILITY_KINDS

        assert "telemetry.snapshot" in OBSERVABILITY_KINDS
        records = [
            Record(tick=0, kind="checkpoint", payload={}, run_id="r"),
            Record(tick=1, kind="telemetry.snapshot",
                   payload={"seq": 0}, run_id="r"),
        ]
        kept = comparable_records(records)
        assert [record.kind for record in kept] == ["checkpoint"]
