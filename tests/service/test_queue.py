"""Tests for the fold's run order and the world-log recovery fold."""

import pytest

from repro.errors import ArtifactError
from repro.service.queue import (
    decode_recorded,
    recorded_jobs,
    recover_jobs,
)
from repro.worldlog.record import Record


def _record(tick, kind, payload):
    return Record(
        tick=tick, kind=kind, payload=payload, run_id="r", worker_id=1
    )


def _submitted(tick, key, priority=0):
    return _record(
        tick,
        "job.submitted",
        {"key": key, "tenant": "t", "priority": priority, "job": {}},
    )


class TestJobQueue:
    """The run order is a view of the fold: ``queued_jobs`` orders the
    queued keys highest priority first, then by acceptance."""

    def test_higher_priority_pops_first(self):
        state = recover_jobs(
            [_submitted(1, "low", priority=0), _submitted(2, "high", 9)]
        )
        assert state.queued_jobs == ["high", "low"]

    def test_equal_priority_is_fifo(self):
        state = recover_jobs(
            [
                _submitted(tick, key, priority=5)
                for tick, key in enumerate(("first", "second", "third"))
            ]
        )
        assert state.queued_jobs == ["first", "second", "third"]

    def test_pop_on_empty_returns_none(self):
        assert recover_jobs([]).queued_jobs == []

    def test_len_tracks_pushes_and_pops(self):
        state = recover_jobs([_submitted(1, "a"), _submitted(2, "b")])
        assert len(state.queued_jobs) == 2
        state.apply(_record(3, "job.start", {"key": "a"}))
        assert state.queued_jobs == ["b"]
        assert list(state.pending_jobs) == ["a", "b"]
        state.apply(_record(4, "job.result", {"key": "a", "result": {}}))
        assert list(state.pending_jobs) == ["b"]

    def test_recovered_jobs_keep_acceptance_order_within_a_priority(self):
        # A died-mid-run job re-queues at its acceptance position: ahead
        # of a later still-queued job of its priority, behind a later
        # job of higher priority.
        state = recover_jobs(
            [
                _submitted(1, "died"),
                _record(2, "job.start", {"key": "died"}),
                _submitted(3, "queued"),
                _submitted(4, "urgent", priority=3),
            ]
        )
        assert state.queued_jobs == ["urgent", "died", "queued"]


class TestRecoverJobs:
    def test_never_started_job_is_requeued(self):
        state = recover_jobs([_submitted(1, "aa")])
        assert list(state.pending_jobs) == ["aa"]
        assert state.jobs["aa"]["state"] == "queued"
        assert state.terminals == {}

    def test_died_mid_run_job_is_requeued(self):
        # job.start with no terminal record: the signature of a worker
        # killed mid-job.  The attempt is lost; the job is not, and it
        # reads queued until its next job.start.
        state = recover_jobs(
            [
                _submitted(1, "aa"),
                _record(2, "job.start", {"key": "aa"}),
            ]
        )
        assert list(state.pending_jobs) == ["aa"]
        assert state.jobs["aa"]["state"] == "queued"
        assert state.terminals == {}
        state.apply(_record(3, "job.start", {"key": "aa"}))
        assert state.jobs["aa"]["state"] == "running"

    def test_terminal_jobs_are_not_requeued(self):
        result = _record(3, "job.result", {"key": "aa", "result": {}})
        state = recover_jobs(
            [
                _submitted(1, "aa"),
                _record(2, "job.start", {"key": "aa"}),
                result,
            ]
        )
        assert list(state.pending_jobs) == []
        assert state.terminals == {"aa": result}

    def test_failed_jobs_count_as_terminal(self):
        error = _record(
            2,
            "job.error",
            {"key": "aa", "error_kind": "exception", "message": "boom"},
        )
        state = recover_jobs([_submitted(1, "aa"), error])
        assert list(state.pending_jobs) == []
        assert state.terminals["aa"].kind == "job.error"

    def test_recovery_preserves_acceptance_order_and_metadata(self):
        state = recover_jobs(
            [
                _submitted(1, "aa", priority=1),
                _record(2, "job.result", {"key": "aa", "result": {}}),
                _submitted(3, "bb", priority=7),
                _submitted(4, "cc", priority=0),
            ]
        )
        assert list(state.pending_jobs) == ["bb", "cc"]
        assert state.jobs["bb"]["priority"] == 7
        assert state.jobs["bb"]["tenant"] == "t"


class TestRecoverJobsDiagnostics:
    """A malformed ``job.*`` payload fails the fold with ``path:line``."""

    @pytest.mark.parametrize(
        "record, fragment",
        [
            (
                _record(1, "job.submitted",
                        {"key": "aa", "priority": 0, "job": {}}),
                "log.worldlog:2: not a job.submitted record "
                "(ValueError: no str field 'tenant')",
            ),
            (
                _record(1, "job.submitted",
                        {"key": "aa", "tenant": "t", "priority": "high",
                         "job": {}}),
                "log.worldlog:2: not a job.submitted record "
                "(ValueError: no int field 'priority')",
            ),
            (
                _record(4, "job.result", {"key": "aa", "result": "?"}),
                "log.worldlog:5: not a job.result record "
                "(ValueError: no dict field 'result')",
            ),
            (
                _record(2, "job.error", {"key": "aa"}),
                "log.worldlog:3: not a job.error record "
                "(ValueError: no str field 'error_kind')",
            ),
            (
                _record(2, "job.result", ["aa"]),
                "log.worldlog:3: not a job.result record "
                "(ValueError: no str field 'key')",
            ),
        ],
    )
    def test_malformed_payload(self, record, fragment):
        with pytest.raises(ArtifactError) as excinfo:
            recover_jobs([record], "log.worldlog")
        assert fragment in str(excinfo.value)

    def test_other_kinds_are_not_checked(self):
        records = [
            _record(1, "job.start", {}),
            _record(2, "job.rejected", {}),
            _record(3, "telemetry.snapshot", None),
        ]
        state = recover_jobs(records)
        assert (state.jobs, state.terminals) == ({}, {})

    def test_recalled_spec_and_result_decode_with_the_diagnostic(self):
        from repro.parallel.jobs import AttackJob
        from repro.worldlog.codec import (
            decode_job,
            decode_job_result,
            encode_job,
        )

        spec = encode_job(AttackJob("silent", 8, 4))
        good = _record(
            1, "job.submitted",
            {"key": "aa", "tenant": "t", "priority": 0, "job": spec},
        )
        assert recorded_jobs([good]) == [AttackJob("silent", 8, 4)]
        broken = dict(spec)
        del broken["builder"]
        bad = _record(
            6, "job.submitted",
            {"key": "bb", "tenant": "t", "priority": 0, "job": broken},
        )
        with pytest.raises(ArtifactError) as excinfo:
            recorded_jobs([good, bad], "log.worldlog")
        assert "log.worldlog:7: not a job.submitted record" in str(
            excinfo.value
        )
        result = _record(3, "job.result", {"key": "aa", "result": {}})
        with pytest.raises(ArtifactError) as excinfo:
            decode_recorded(result, "result", decode_job_result)
        assert "world log:4: not a job.result record" in str(excinfo.value)
        assert decode_recorded(good, "job", decode_job) == AttackJob(
            "silent", 8, 4
        )
