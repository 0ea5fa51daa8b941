"""Round trips for the records crash-resume replays.

A resumed sweep rebuilds each recorded cell's ``JobResult`` from JSON
alone; the rebuilt object must be *equal* to what the original worker
shipped (outcome equality deliberately excludes wall-clock and the live
certificate object — the canonical certificate bytes travel separately
and must round-trip byte-identically).
"""

import json
import pathlib

import pytest

from repro.experiments import CHEATERS
from repro.parallel.jobs import AttackJob, MeasureJob, execute_job
from repro.worldlog.codec import (
    IN_CERTIFICATE,
    decode_job,
    decode_job_result,
    encode_job,
    encode_job_result,
)

# ``job.result`` payloads the codec wrote at commit 35c8236, before a
# witness moved into its certificate or the table layout: each holds a
# per-execution ``"format": 1`` witness.  One certified ``silent``
# attack, one uncertified ``leader-echo`` attack, both at n=8, t=4.
OLDER_RECORDS = pathlib.Path(__file__).parent / "older_records"


def _keys(data):
    """Every dict key anywhere inside ``data``."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield key
            yield from _keys(value)
    elif isinstance(data, list):
        for value in data:
            yield from _keys(value)


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


class TestWitnessRecordedOnce:
    """An attack outcome's witness execution is in a ``job.result`` once:
    in the certificate when there is one, else in the table layout."""

    @pytest.mark.parametrize("n, t", [(8, 4), (12, 8)])
    @pytest.mark.parametrize("builder", sorted(CHEATERS))
    def test_certified_witness_comes_from_the_certificate(
        self, builder, n, t
    ):
        result = execute_job(AttackJob(builder, n, t, certify=True))
        assert result.value.witness is not None
        encoded = json.loads(json.dumps(encode_job_result(result)))
        assert encoded["value"]["witness"] == IN_CERTIFICATE
        assert not {"execution", "fragments", "messages"} & set(
            _keys(encoded["value"])
        )
        decoded = decode_job_result(encoded)
        assert decoded.value == result.value
        assert decoded.certificate == result.certificate

    def test_uncertified_witness_in_table_layout(self):
        result = execute_job(AttackJob("leader-echo", 8, 4))
        assert result.certificate is None
        encoded = json.loads(json.dumps(encode_job_result(result)))
        witness = encoded["value"]["witness"]
        assert {"messages", "fragments", "execution"} <= set(witness)
        assert "format" not in witness["execution"]
        decoded = decode_job_result(encoded)
        assert decoded.value == result.value
        assert decoded.value.witness is not None

    @pytest.mark.parametrize("certify", [False, True])
    def test_bound_respected_outcome(self, certify):
        result = execute_job(AttackJob("correct", 8, 4, certify=certify))
        assert result.value.witness is None
        encoded = json.loads(json.dumps(encode_job_result(result)))
        assert encoded["value"]["witness"] is None
        decoded = decode_job_result(encoded)
        assert decoded.value == result.value
        assert decoded.certificate == result.certificate

    @pytest.mark.parametrize("name", ["certified", "uncertified"])
    def test_older_record_decodes(self, name):
        """A ``job.result`` written with a per-execution (``"format":
        1``) witness still decodes to the outcome its job computes."""
        fixture = json.loads(
            (OLDER_RECORDS / f"{name}.job-result.json").read_text()
        )
        result = fixture["payload"]["result"]
        assert result["value"]["witness"]["execution"]["format"] == 1
        decoded = decode_job_result(result)
        expected = execute_job(decode_job(fixture["job"]))
        assert decoded.value == expected.value
        assert decoded.value.witness is not None
        assert decoded.certificate == expected.certificate
        assert (decoded.certificate is not None) == (name == "certified")
