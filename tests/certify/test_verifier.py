"""The independent verifier: acceptance, dispatch, and independence.

The tampering matrix (every mutation rejected with its named condition)
lives in ``test_tampering.py``; this module covers the accepting paths
and the trust argument — the verifier must reach its verdict without
loading any producer-side code.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.certify.verifier import verify_certificate

# Children keep the caller's bytecode setting, so a run with
# PYTHONDONTWRITEBYTECODE writes no __pycache__ into src/.
BYTECODE_ENV = {
    key: value
    for key, value in os.environ.items()
    if key == "PYTHONDONTWRITEBYTECODE"
}


class TestAcceptance:
    def test_violation_certificate_verifies_structurally(
        self, violation_certificate
    ):
        report = verify_certificate(violation_certificate)
        assert report.ok
        assert report.first is None
        assert not report.replayed
        # The pass walks the full condition set, not a spot check.
        assert report.conditions_checked > 100
        assert "VERIFIED (structural" in report.render()

    def test_violation_certificate_survives_replay(self, violation_setup):
        spec, outcome = violation_setup
        report = verify_certificate(
            outcome.certificate, factory=spec.factory
        )
        assert report.ok
        assert report.replayed
        assert "structural+replay" in report.render()

    def test_bound_certificate_verifies(self, bound_setup):
        spec, outcome = bound_setup
        report = verify_certificate(
            outcome.certificate, factory=spec.factory
        )
        assert report.ok
        assert outcome.certificate.verdict == "bound-respected"

    def test_predicate_form(self, violation_certificate):
        assert verify_certificate(violation_certificate).ok
        assert not verify_certificate({"format": "bogus"}).ok


class TestSourceDispatch:
    """One verdict regardless of how the artifact arrives."""

    def test_all_source_forms_agree(self, violation_certificate):
        reports = [
            verify_certificate(source)
            for source in (
                violation_certificate,
                violation_certificate.payload,
                violation_certificate.dumps(),
                violation_certificate.to_bytes(),
            )
        ]
        assert all(report.ok for report in reports)
        assert len({r.conditions_checked for r in reports}) == 1

    def test_invalid_json_text(self):
        report = verify_certificate("{definitely not json")
        assert not report.ok
        assert report.first.condition == "schema.structure"

    @pytest.mark.parametrize(
        "source", ["[" * 3000, b"[" * 3000], ids=["text", "bytes"]
    )
    def test_deeply_nested_json(self, source):
        # Nested past the recursion limit: a structure failure, not a
        # RecursionError out of the verifier.
        report = verify_certificate(source)
        assert not report.ok
        assert report.first.condition == "schema.structure"

    def test_non_utf8_bytes(self):
        report = verify_certificate(b"\xff\xfe not a certificate")
        assert not report.ok
        assert report.first.condition == "schema.structure"

    def test_foreign_document(self):
        report = verify_certificate({"format": "something-else"})
        assert not report.ok
        assert report.first.condition == "schema.version"
        assert "REJECTED" in report.render()
        assert "schema.version" in report.render()


class TestVerifierIndependence:
    """The acceptance bar: a structural verification never loads the
    attack driver, the simulation engine, or even the producer-side
    format module — the artifact is judged by reimplemented checks."""

    def test_structural_verification_loads_no_producer_code(
        self, violation_certificate, tmp_path
    ):
        artifact = tmp_path / "witness.cert.json"
        artifact.write_bytes(violation_certificate.to_bytes())
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        script = (
            "import json, sys\n"
            "from repro.certify.verifier import verify_certificate\n"
            f"blob = open({str(artifact)!r}, 'rb').read()\n"
            "report = verify_certificate(blob)\n"
            "loaded = sorted(\n"
            "    name for name in sys.modules\n"
            "    if name == 'repro' or name.startswith('repro.')\n"
            ")\n"
            "print(json.dumps({'ok': report.ok, 'loaded': loaded}))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", **BYTECODE_ENV},
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(completed.stdout)
        assert result["ok"] is True
        # Exactly the verifier and the package roots it sits under —
        # no driver, no engine, no serialization, no format module.
        assert result["loaded"] == [
            "repro",
            "repro.certify",
            "repro.certify.verifier",
            "repro.errors",
            "repro.types",
        ]
