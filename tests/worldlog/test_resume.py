"""Crash-resume bit-identity (the tentpole acceptance test).

A ``--jobs N`` sweep recording into a world log is SIGKILLed mid-flight
after at least one cell's terminal record hit the disk.  Resuming the
torn log must (a) not re-execute recorded cells and (b) finish with a
``SweepReport``, certificates and ledger order signature bit-identical
to an *uninterrupted serial* run — the scheduler's cross-backend
equality contract, extended across a crash.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.obs.ledger import RunLedger, order_signature
from repro.parallel.jobs import AttackJob, MeasureJob
from repro.parallel.scheduler import SweepScheduler
from repro.worldlog import WorldLog, read_worldlog

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
        if record.kind in ("cell.result", "cell.error")
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
                    if '"kind": "cell.result"' in handle.read():
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
        by_index = {
            record.payload["index"]: record for record in recorded
        }
        for cell in resumed.cells:
            if cell.index in by_index:
                payload = by_index[cell.index].payload
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
        assert "cell.result" not in new_kinds
        assert again.values() == first.values()
        assert [cell.wall_seconds for cell in again.cells] == [
            cell.wall_seconds for cell in first.cells
        ]

    def test_resume_refuses_a_different_plan(self, tmp_path):
        log_path = str(tmp_path / "plan.worldlog")
        with WorldLog.create(log_path, run_id="r") as worldlog:
            SweepScheduler(jobs=1, worldlog=worldlog).run(
                [AttackJob("silent", 8, 4)]
            )
        with WorldLog.resume(log_path) as worldlog:
            with pytest.raises(ReproError) as excinfo:
                SweepScheduler(jobs=1, worldlog=worldlog).run(
                    [AttackJob("ring-token", 12, 8)]
                )
        assert "different sweep plan" in str(excinfo.value)

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
