"""Crash-resume bit-identity (the tentpole acceptance test).

A ``--jobs N`` sweep recording into a world log is SIGKILLed mid-flight
after at least one cell's terminal record hit the disk.  Resuming the
torn log must (a) not re-execute recorded cells and (b) finish with a
``SweepReport``, certificates and ledger order signature bit-identical
to an *uninterrupted serial* run — the scheduler's cross-backend
equality contract, extended across a crash.

A sweep records its matrix as the attack service's jobs (``job.*``
records keyed by spec hash), so the same fold that restarts
``repro serve`` — :func:`~repro.service.queue.recover_jobs` — is what
a resumed sweep reads.
"""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.obs.ledger import RunLedger, order_signature
from repro.parallel.jobs import AttackJob, MeasureJob
from repro.parallel.scheduler import SweepScheduler
from repro.service.protocol import job_key
from repro.service.queue import recover_jobs
from repro.worldlog import WorldLog, read_worldlog
from repro.worldlog.codec import encode_job

# One certified attack (certificate bytes must survive), one plain
# attack, one quick measure, and one slow measure tail that keeps the
# pooled sweep alive long enough for a deterministic mid-flight kill.
MATRIX_SOURCE = """[
    AttackJob("silent", 8, 4, certify=True),
    AttackJob("ring-token", 12, 8),
    MeasureJob("weak-consensus", 24, 20),
    MeasureJob("weak-consensus", 56, 52),
]"""


def _matrix():
    return eval(  # noqa: S307 - the literal above, shared with the child
        MATRIX_SOURCE,
        {"AttackJob": AttackJob, "MeasureJob": MeasureJob},
    )


def _terminal_records(path):
    return [
        record
        for record in read_worldlog(path)
        if record.kind in ("job.result", "job.error")
    ]


def _ledger_keys(matrix):
    """Each cell's job key as a ledger-carrying sweep records it."""
    return [
        job_key(encode_job(replace(job, ledger=True))) for job in matrix
    ]


def _run_and_kill_mid_flight(log_path):
    """Launch a jobs=2 sweep subprocess; SIGKILL it after >=1 record.

    The child leads its own session, so the kill reaches its whole
    process group: the pool workers die with it instead of lingering
    as orphans.
    """
    script = "\n".join(
        [
            "from repro.obs.ledger import RunLedger",
            "from repro.parallel.jobs import AttackJob, MeasureJob",
            "from repro.parallel.scheduler import SweepScheduler",
            "from repro.worldlog import WorldLog",
            "",
            f"worldlog = WorldLog.create({log_path!r}, run_id='crashed')",
            "ledger = RunLedger(run_id='crashed', "
            "sink=worldlog.record_event)",
            "SweepScheduler(jobs=2, ledger=ledger, worldlog=worldlog)"
            f".run({MATRIX_SOURCE})",
            "worldlog.close()",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break
            if os.path.exists(log_path):
                with open(log_path, encoding="utf-8") as handle:
                    if '"kind": "job.result"' in handle.read():
                        break
            time.sleep(0.01)
        else:  # pragma: no cover - diagnostics for a hung child
            pytest.fail("sweep subprocess produced no record in 60s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:  # the child and its workers are gone
            pass
        child.wait(timeout=60)


def _certificates(report):
    return {
        cell.key: cell.result.certificate
        for cell in report.cells
        if cell.result is not None
    }


class TestCrashResume:
    def test_killed_sweep_resumes_bit_identical(self, tmp_path):
        log_path = str(tmp_path / "crashed.worldlog")
        _run_and_kill_mid_flight(log_path)
        recorded = _terminal_records(log_path)
        assert recorded, "the kill came before any terminal record"

        # Resume with the pooled backend on the torn log.
        worldlog = WorldLog.resume(log_path)
        ledger = RunLedger(run_id="crashed", sink=worldlog.record_event)
        resumed = SweepScheduler(
            jobs=2, ledger=ledger, worldlog=worldlog
        ).run(_matrix())
        worldlog.close()

        # Uninterrupted serial baseline: the equality reference.
        baseline_ledger = RunLedger(run_id="baseline")
        baseline = SweepScheduler(jobs=1, ledger=baseline_ledger).run(
            _matrix()
        )

        assert resumed.ok and baseline.ok
        assert resumed.values() == baseline.values()
        assert _certificates(resumed) == _certificates(baseline)
        assert order_signature(ledger.events) == order_signature(
            baseline_ledger.events
        )
        # Recorded cells were replayed, not re-executed: their wall
        # clocks are the original run's, verbatim from the record.
        by_key = {record.payload["key"]: record for record in recorded}
        keys = _ledger_keys(_matrix())
        for cell in resumed.cells:
            if keys[cell.index] in by_key:
                payload = by_key[keys[cell.index]].payload
                recorded_wall = payload.get("wall_seconds") or payload[
                    "result"
                ].get("wall_seconds")
                assert cell.wall_seconds == recorded_wall

    def test_resume_skips_all_when_nothing_crashed(self, tmp_path):
        """Resuming a complete log re-executes nothing."""
        log_path = str(tmp_path / "done.worldlog")
        matrix = [AttackJob("silent", 8, 4), AttackJob("ring-token", 12, 8)]
        with WorldLog.create(log_path, run_id="r") as worldlog:
            first = SweepScheduler(jobs=1, worldlog=worldlog).run(matrix)
        with WorldLog.resume(log_path) as worldlog:
            ticks_before = worldlog.next_tick
            again = SweepScheduler(jobs=1, worldlog=worldlog).run(matrix)
            # No new terminal records were appended for recalled cells.
            new_kinds = [
                record.kind
                for record in worldlog.records
                if record.tick >= ticks_before
            ]
        assert "job.result" not in new_kinds
        assert again.values() == first.values()
        assert [cell.wall_seconds for cell in again.cells] == [
            cell.wall_seconds for cell in first.cells
        ]

    def test_killed_sweep_pending_jobs_are_its_unfinished_cells(
        self, tmp_path
    ):
        """The service's fold reads a killed sweep's log exactly."""
        killed_log = str(tmp_path / "crashed.worldlog")
        _run_and_kill_mid_flight(killed_log)
        records = read_worldlog(killed_log)
        keys = _ledger_keys(_matrix())
        finished = {record.payload["key"] for record in records
                    if record.kind in ("job.result", "job.error")}
        state = recover_jobs(records, killed_log)
        assert set(state.terminals) == finished
        assert list(state.pending_jobs) == [
            key for key in keys if key not in finished
        ]
        for key in state.pending_jobs:
            assert state.jobs[key]["tenant"] == "sweep"
            assert state.jobs[key]["priority"] == 0
        # The whole matrix was submitted before any job ran.
        submitted = [r for r in records if r.kind == "job.submitted"]
        assert [r.payload["key"] for r in submitted] == keys
        first_terminal = min(
            r.tick for r in records
            if r.kind in ("job.result", "job.error")
        )
        assert all(r.tick < first_terminal for r in submitted)
        assert "job.start" not in {r.kind for r in records}

    def test_different_matrix_recalls_shared_keys_runs_new_ones(
        self, tmp_path
    ):
        log_path = str(tmp_path / "plan.worldlog")
        with WorldLog.create(log_path, run_id="r") as worldlog:
            first = SweepScheduler(jobs=1, worldlog=worldlog).run(
                [AttackJob("silent", 8, 4)]
            )
        with WorldLog.resume(log_path) as worldlog:
            ticks_before = worldlog.next_tick
            again = SweepScheduler(jobs=1, worldlog=worldlog).run(
                [AttackJob("ring-token", 12, 8), AttackJob("silent", 8, 4)]
            )
            new = [
                record
                for record in worldlog.records
                if record.tick >= ticks_before
            ]
        assert again.ok
        # The shared key is recalled verbatim, not re-run ...
        assert again.cells[1].value == first.cells[0].value
        assert again.cells[1].wall_seconds == first.cells[0].wall_seconds
        # ... and only the new key is submitted and answered.
        ring_key = job_key(encode_job(AttackJob("ring-token", 12, 8)))
        assert [(r.kind, r.payload["key"]) for r in new
                if r.kind.startswith("job.")] == [
            ("job.submitted", ring_key),
            ("job.result", ring_key),
        ]

    def test_duplicate_spec_runs_once_and_fills_every_index(
        self, tmp_path
    ):
        log_path = str(tmp_path / "dup.worldlog")
        matrix = [
            AttackJob("silent", 8, 4),
            AttackJob("ring-token", 12, 8),
            AttackJob("silent", 8, 4),
        ]
        with WorldLog.create(log_path, run_id="r") as worldlog:
            report = SweepScheduler(jobs=1, worldlog=worldlog).run(matrix)
        kinds = [r.kind for r in read_worldlog(log_path)]
        assert kinds.count("job.submitted") == 2
        assert kinds.count("job.result") == 2
        assert [cell.index for cell in report.cells] == [0, 1, 2]
        assert report.ok
        assert report.cells[2].value == report.cells[0].value
        assert report.cells[2].wall_seconds == report.cells[0].wall_seconds

    def test_errored_cells_are_recalled_too(self, tmp_path):
        log_path = str(tmp_path / "errors.worldlog")
        matrix = [
            AttackJob("silent", 8, 4),
            AttackJob("no-such-builder", 8, 4),
        ]
        with WorldLog.create(log_path, run_id="r") as worldlog:
            first = SweepScheduler(jobs=1, worldlog=worldlog).run(matrix)
        assert not first.ok
        with WorldLog.resume(log_path) as worldlog:
            again = SweepScheduler(jobs=1, worldlog=worldlog).run(matrix)
        (error_cell,) = again.errors()
        (first_error,) = first.errors()
        assert error_cell.error == first_error.error
        assert error_cell.wall_seconds == first_error.wall_seconds
