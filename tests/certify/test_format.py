"""The v2 certificate artifact format (build, roundtrip, rejection)."""

import json

import pytest

from repro.certify.format import (
    CERTIFICATE_FORMAT,
    CERTIFICATE_SCHEMA,
    Certificate,
    build_certificate,
)
from repro.errors import ReproError


class TestCertificateAccessors:
    def test_claim_properties(self, violation_setup):
        spec, outcome = violation_setup
        certificate = outcome.certificate
        assert certificate.schema == CERTIFICATE_SCHEMA
        assert certificate.verdict == "violation"
        assert certificate.protocol == outcome.protocol
        assert certificate.n == spec.n
        assert certificate.t == spec.t

    def test_execution_labels_sorted(self, violation_certificate):
        labels = violation_certificate.execution_labels
        assert labels == tuple(sorted(labels))
        assert "witness" in labels

    def test_embedded_witness_execution_decodes_exactly(
        self, violation_setup
    ):
        _, outcome = violation_setup
        decoded = outcome.certificate.execution("witness")
        assert decoded == outcome.witness.execution

    def test_witness_reconstructs(self, violation_setup):
        _, outcome = violation_setup
        rebuilt = outcome.certificate.witness()
        assert rebuilt == outcome.witness

    def test_bound_certificate_has_no_witness(self, bound_setup):
        _, outcome = bound_setup
        certificate = outcome.certificate
        assert certificate.verdict == "bound-respected"
        assert certificate.witness() is None
        assert certificate.execution_labels == ("max-messages",)

    def test_unknown_label_raises(self, violation_certificate):
        with pytest.raises(ReproError, match="no execution"):
            violation_certificate.execution("no-such-label")


class TestRoundtrip:
    def test_dumps_is_canonical_json(self, violation_certificate):
        text = violation_certificate.dumps()
        assert text == violation_certificate.dumps()
        assert json.loads(text) == violation_certificate.payload

    def test_text_roundtrip(self, violation_certificate):
        text = violation_certificate.dumps()
        assert Certificate.loads(text) == violation_certificate

    def test_bytes_roundtrip(self, violation_certificate):
        blob = violation_certificate.to_bytes()
        assert isinstance(blob, bytes)
        assert Certificate.loads(blob.decode("utf-8")) == (
            violation_certificate
        )


class TestLoaderRejection:
    def test_rejects_invalid_json(self):
        with pytest.raises(ReproError, match="not valid JSON"):
            Certificate.loads("{not json")

    def test_rejects_non_certificate_documents(self):
        with pytest.raises(ReproError, match="not a repro attack"):
            Certificate.from_dict({"format": "something-else"})
        with pytest.raises(ReproError, match="not a repro attack"):
            Certificate.from_dict(["not", "a", "dict"])

    def test_rejects_unknown_schema_versions(self):
        payload = {"format": CERTIFICATE_FORMAT, "schema": 99}
        with pytest.raises(ReproError, match="unsupported"):
            Certificate.from_dict(payload)


class TestBuilderValidation:
    """``build_certificate`` refuses inconsistent inputs eagerly."""

    def _base_kwargs(self, violation_setup):
        spec, outcome = violation_setup
        claim = outcome.certificate.payload["claim"]
        return {
            "protocol": outcome.protocol,
            "n": spec.n,
            "t": spec.t,
            "rounds": claim["rounds"],
            "partition": outcome.partition,
            "executions": {"witness": outcome.witness.execution},
        }

    def test_witness_requires_embedded_label(self, violation_setup):
        kwargs = self._base_kwargs(violation_setup)
        with pytest.raises(ReproError, match="witness"):
            build_certificate(
                **kwargs, witness=violation_setup[1].witness
            )
        with pytest.raises(ReproError, match="unembedded"):
            build_certificate(
                **kwargs,
                witness=violation_setup[1].witness,
                witness_label="not-embedded",
            )

    def test_dangling_claim_labels_rejected(self, violation_setup):
        kwargs = self._base_kwargs(violation_setup)
        with pytest.raises(ReproError, match="unembedded"):
            build_certificate(
                **kwargs,
                indistinguishability=[
                    {
                        "left": "witness",
                        "right": "ghost",
                        "processes": [0],
                    }
                ],
            )
        with pytest.raises(ReproError, match="unembedded"):
            build_certificate(
                **kwargs,
                isolations=[
                    {"execution": "ghost", "group": [0], "from_round": 1}
                ],
            )
        with pytest.raises(ReproError, match="unembedded"):
            build_certificate(**kwargs, max_label="ghost")
