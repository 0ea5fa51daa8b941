"""Round trips for the records crash-resume replays.

A resumed sweep rebuilds each recorded cell's ``JobResult`` from JSON
alone; the rebuilt object must be *equal* to what the original worker
shipped (outcome equality deliberately excludes wall-clock and the live
certificate object — the canonical certificate bytes travel separately
and must round-trip byte-identically).
"""

from repro.parallel.jobs import AttackJob, MeasureJob, execute_job
from repro.worldlog.codec import (
    decode_job,
    decode_job_result,
    encode_job,
    encode_job_result,
)


class TestJobCodec:
    def test_attack_job_roundtrip(self):
        job = AttackJob(
            builder="silent",
            n=8,
            t=4,
            verify=False,
            check=False,
            early_stop=False,
            reuse=False,
            certify=True,
            ledger=True,
        )
        assert decode_job(encode_job(job)) == job

    def test_measure_job_roundtrip(self):
        job = MeasureJob(builder="weak-consensus", n=8, t=4, ledger=True)
        assert decode_job(encode_job(job)) == job

    def test_defaults_roundtrip(self):
        for job in (
            AttackJob("ring-token", 12, 8),
            MeasureJob("ic", 8, 4),
        ):
            assert decode_job(encode_job(job)) == job


class TestJobResultCodec:
    def test_attack_result_roundtrip(self):
        result = execute_job(
            AttackJob("silent", 8, 4, certify=True, ledger=True)
        )
        decoded = decode_job_result(encode_job_result(result))
        assert decoded.key == result.key
        # AttackOutcome equality covers witness, executions, bound,
        # partition, log — the full deterministic outcome.
        assert decoded.value == result.value
        assert decoded.wall_seconds == result.wall_seconds
        assert decoded.cache == result.cache
        assert decoded.rounds_simulated == result.rounds_simulated
        assert decoded.rounds_baseline == result.rounds_baseline
        # Certificate bytes round-trip byte-identically.
        assert decoded.certificate == result.certificate
        assert decoded.events is not None
        assert [event.to_json() for event in decoded.events] == [
            event.to_json() for event in result.events
        ]

    def test_measure_result_roundtrip(self):
        result = execute_job(MeasureJob("weak-consensus", 8, 4))
        decoded = decode_job_result(encode_job_result(result))
        assert decoded.value == result.value
        assert decoded.cache == result.cache
        assert decoded.certificate is None
        assert decoded.events is None

    def test_encoding_is_json_stable(self):
        """Encoding the same result twice yields identical JSON."""
        import json

        result = execute_job(AttackJob("silent", 8, 4, certify=True))
        first = json.dumps(encode_job_result(result), sort_keys=True)
        second = json.dumps(encode_job_result(result), sort_keys=True)
        assert first == second
