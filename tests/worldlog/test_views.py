"""Derived views are byte-identical to the legacy writers' output.

Two directions, one run each:

* *record → view*: the artifacts derived from a world log match what
  the legacy writer would have persisted for the same run, byte for
  byte;
* *legacy → record → view* (``repro log import``): a legacy artifact
  folded into a world log derives back to its original bytes.
"""

import json
import os

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.subquadratic import silent_cheater_spec
from repro.worldlog import WorldLog, derive_views, read_worldlog
from repro.worldlog.legacy import import_legacy
from repro.worldlog.views import (
    CHECKPOINTS_SCHEMA,
    certificate_texts,
    checkpoint_manifest,
    ledger_lines,
)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class TestDerivedViews:
    def test_ledger_view_byte_identical_to_run_ledger_write(
        self, tmp_path
    ):
        log_path = str(tmp_path / "run.worldlog")
        legacy_path = str(tmp_path / "run.jsonl")
        with WorldLog.create(log_path, run_id="r") as log:
            ledger = RunLedger(run_id="r", sink=log.record_event)
            attack_weak_consensus(
                silent_cheater_spec(8, 4), tracer=LedgerTracer(ledger)
            )
            ledger.write(legacy_path)
        records = read_worldlog(log_path)
        written = derive_views(records, str(tmp_path / "views"))
        assert _read(written["ledger"][0]) == _read(legacy_path)

    def test_certificate_view_byte_identical_to_artifact(self, tmp_path):
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            outcome = attack_weak_consensus(
                silent_cheater_spec(8, 4), certify=True, worldlog=log
            )
        records = read_worldlog(log_path)
        texts = certificate_texts(records)
        label = f"{outcome.protocol}-n8-t4"
        assert texts == {label: outcome.certificate.dumps()}
        written = derive_views(records, str(tmp_path / "views"))
        (cert_path,) = written["certificates"]
        assert os.path.basename(cert_path) == f"{label}.cert.json"
        assert _read(cert_path).encode() == outcome.certificate.to_bytes()

    def test_checkpoint_records_land_in_manifest(self, tmp_path):
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            attack_weak_consensus(
                silent_cheater_spec(8, 4), worldlog=log
            )
        manifest = checkpoint_manifest(read_worldlog(log_path))
        assert manifest["schema"] == CHECKPOINTS_SCHEMA
        assert manifest["checkpoints"], "reuse stored no checkpointer"
        for note in manifest["checkpoints"]:
            assert note["protocol"] == "silent-cheater"
            assert note["enabled"] is True

    def test_ledger_view_reads_after_last_gather_marker(self, tmp_path):
        """Crash-mid-gather safety: only the final splice survives."""
        log_path = str(tmp_path / "run.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            ledger = RunLedger(run_id="r", sink=log.record_event)
            ledger.emit("counter", "stale.splice", value=1)
            log.append("gather.start", {"cells": 1})
            ledger.emit("counter", "final.splice", value=1)
        lines = ledger_lines(read_worldlog(log_path))
        names = [json.loads(line)["name"] for line in lines]
        assert names == ["final.splice"]

    def test_retired_kinds_still_read_and_derive_nothing(self, tmp_path):
        """Logs written before ``bench.point`` / ``trend.point`` retired."""
        log_path = str(tmp_path / "old.worldlog")
        with WorldLog.create(log_path, run_id="r") as log:
            log.append("bench.point", {"suite": "s", "kernel": "k"})
            log.append("trend.point", {"label": "x", "wall_seconds": 0.1})
        records = read_worldlog(log_path)
        assert [r.kind for r in records] == [
            "log.open",
            "bench.point",
            "trend.point",
        ]
        out_dir = tmp_path / "views"
        assert derive_views(records, str(out_dir)) == {}
        assert list(out_dir.iterdir()) == []


class TestLegacyImport:
    def _legacy_artifacts(self, tmp_path):
        paths = {}
        # ledger: the current writer's bytes
        ledger = RunLedger(run_id="legacy", worker_id=1)
        ledger.emit("counter", "cache.hits", value=3, cell_id="c")
        ledger.emit("gauge", "bound.vs_floor", value=1.5)
        paths["ledger"] = str(tmp_path / "run.jsonl")
        ledger.write(paths["ledger"])
        # certificate: a real attack artifact
        outcome = attack_weak_consensus(
            silent_cheater_spec(8, 4), certify=True
        )
        paths["certificate"] = str(
            tmp_path / "silent-cheater-n8-t4.cert.json"
        )
        with open(paths["certificate"], "wb") as handle:
            handle.write(outcome.certificate.to_bytes())
        return paths

    def test_roundtrip_byte_identical(self, tmp_path):
        paths = self._legacy_artifacts(tmp_path)
        log_path = str(tmp_path / "imported.worldlog")
        counts = import_legacy(list(paths.values()), log_path)
        assert counts == {"ledger": 2, "certificate": 1}
        written = derive_views(
            read_worldlog(log_path), str(tmp_path / "views")
        )
        assert _read(written["ledger"][0]) == _read(paths["ledger"])
        assert _read(written["certificates"][0]) == _read(
            paths["certificate"]
        )

    def test_unknown_family_rejected_before_writing(self, tmp_path):
        import pytest

        from repro.errors import ArtifactError

        good = str(tmp_path / "run.jsonl")
        ledger = RunLedger(run_id="legacy", worker_id=1)
        ledger.emit("counter", "cache.hits", value=3)
        ledger.write(good)
        bad = str(tmp_path / "mystery.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('{"what": "ever"}')
        out = str(tmp_path / "out.worldlog")
        with pytest.raises(ArtifactError):
            import_legacy([good, bad], out)
        # The sniff pass runs first: nothing was partially written.
        assert not os.path.exists(out)

    def test_retired_families_exit_two_with_file_line(
        self, tmp_path, capsys
    ):
        """Bench trajectories and trend logs are no longer importable."""
        from repro.cli import main

        bench = str(tmp_path / "BENCH_demo.json")
        with open(bench, "w", encoding="utf-8") as handle:
            json.dump(
                {"schema": "repro.bench/v1", "points": []}, handle, indent=2
            )
        trend = str(tmp_path / "trend.jsonl")
        with open(trend, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"label": "x", "wall_seconds": 0.1}) + "\n"
            )
        for path in (bench, trend):
            out = str(tmp_path / "out.worldlog")
            assert main(["log", "import", path, "--out", out]) == 2
            err = capsys.readouterr().err
            assert f"{path}:1: not a legacy artifact" in err
            assert "Traceback" not in err
            assert not os.path.exists(out)


class TestJobsView:
    """The service-era jobs view: one manifest entry per job key."""

    def _record(self, tick, kind, payload):
        from repro.worldlog.record import Record

        return Record(
            tick=tick,
            kind=kind,
            payload=payload,
            run_id="r",
            worker_id=1,
        )

    def _records(self):
        return [
            self._record(
                1,
                "job.submitted",
                {
                    "key": "aa",
                    "tenant": "alice",
                    "priority": 2,
                    "job": {"kind": "classify"},
                },
            ),
            self._record(2, "job.start", {"key": "aa"}),
            self._record(3, "job.result", {"key": "aa", "result": {}}),
            self._record(
                4,
                "job.submitted",
                {
                    "key": "bb",
                    "tenant": "bob",
                    "priority": 0,
                    "job": {"kind": "attack"},
                },
            ),
            self._record(5, "job.start", {"key": "bb"}),
            self._record(
                6,
                "job.error",
                {
                    "key": "bb",
                    "error_kind": "exception",
                    "message": "boom",
                },
            ),
        ]

    def test_manifest_folds_the_lifecycle(self):
        from repro.worldlog.views import JOBS_SCHEMA, jobs_manifest

        manifest = jobs_manifest(self._records())
        assert manifest["schema"] == JOBS_SCHEMA
        done, failed = manifest["jobs"]
        assert done["key"] == "aa"
        assert done["state"] == "done"
        assert (done["submitted_tick"], done["terminal_tick"]) == (1, 3)
        assert failed["state"] == "failed"
        assert failed["error_kind"] == "exception"
        assert failed["message"] == "boom"

    def test_started_but_unfinished_job_shows_running(self):
        from repro.worldlog.views import jobs_manifest

        manifest = jobs_manifest(self._records()[:2])
        (entry,) = manifest["jobs"]
        assert entry["state"] == "running"
        assert entry["terminal_tick"] is None

    def test_derive_views_writes_jobs_json(self, tmp_path):
        out_dir = str(tmp_path / "views")
        written = derive_views(self._records(), out_dir)
        assert written["jobs"] == [os.path.join(out_dir, "jobs.json")]
        document = json.loads(_read(written["jobs"][0]))
        assert document["schema"] == "repro.jobs/v1"
        assert [entry["key"] for entry in document["jobs"]] == [
            "aa",
            "bb",
        ]

    def test_logs_without_jobs_derive_no_jobs_view(self, tmp_path):
        written = derive_views([], str(tmp_path / "empty"))
        assert "jobs" not in written
