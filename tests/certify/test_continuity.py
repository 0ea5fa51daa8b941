"""Continuity across the v1 → v2 layout change.

Published v1 certificates keep verifying through the CLI, a v1 and a v2
artifact of one attack decode to equal executions, and v2 bytes depend
neither on the hash seed nor on the sweep backend.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.certify.format import Certificate
from repro.cli import main
from repro.experiments import CHEATERS
from repro.parallel import AttackJob, SweepScheduler
from v1_layout import expand_to_v1

GOLDEN_V1 = (
    pathlib.Path(__file__).parents[1]
    / "worldlog"
    / "golden"
    / "expected"
    / "certificates"
    / "silent-cheater-n8-t4.cert.json"
)


class TestPublishedV1:
    def test_golden_artifact_is_v1(self):
        assert json.loads(GOLDEN_V1.read_bytes())["schema"] == 1

    def test_verify_cert_accepts_it(self, capsys):
        assert main(["verify-cert", str(GOLDEN_V1)]) == 0
        assert "VERIFIED (structural;" in capsys.readouterr().out

    def test_rerendering_it_reproduces_its_bytes(self):
        # A published v1 file read and re-rendered must come back out
        # byte for byte.
        blob = GOLDEN_V1.read_bytes()
        assert Certificate.loads(blob.decode("utf-8")).to_bytes() == blob

    def test_verify_cert_replays_it(self, capsys):
        assert main(["verify-cert", str(GOLDEN_V1), "--replay", "silent"]) == 0
        assert "VERIFIED (structural+replay;" in capsys.readouterr().out


class TestDecoding:
    def test_v1_and_v2_decode_equal_executions(self, violation_certificate):
        v2 = Certificate.loads(violation_certificate.dumps())
        v1 = Certificate.from_dict(expand_to_v1(v2.payload))
        assert (v1.schema, v2.schema) == (1, 2)
        assert v1.execution_labels == v2.execution_labels
        for label in v2.execution_labels:
            assert v1.execution(label) == v2.execution(label)
        assert v1.witness() == v2.witness()

    def test_golden_v1_decodes(self):
        certificate = Certificate.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        for label in certificate.execution_labels:
            assert certificate.execution(label).n == certificate.n


_DIGESTS = """
import hashlib
from repro.parallel import AttackJob, execute_job
for builder in ("leader-echo", "committee", "ring-token"):
    blob = execute_job(AttackJob(builder, 12, 8, certify=True)).certificate
    print(builder, hashlib.sha256(blob).hexdigest())
"""


class TestByteIdentity:
    def test_independent_of_the_hash_seed(self):
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _DIGESTS],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "12345")
        ]
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 3

    def test_e3_serial_and_two_workers_ship_equal_bytes(self):
        matrix = [
            AttackJob(builder=name, n=t + 4, t=t, certify=True)
            for name in CHEATERS
            for t in (8, 16, 24)
        ]
        serial = SweepScheduler(jobs=1).run(matrix)
        parallel = SweepScheduler(jobs=2).run(matrix)
        serial.raise_errors()
        parallel.raise_errors()
        assert parallel.backend == "process"
        assert [cell.result.certificate for cell in serial.cells] == [
            cell.result.certificate for cell in parallel.cells
        ]
        assert all(
            json.loads(cell.result.certificate)["schema"] == 2
            for cell in serial.cells
        )
