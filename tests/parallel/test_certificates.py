"""Certificates through the sweep: shipped as bytes, verified at gather.

Certifying cells render their artifact to canonical bytes inside the
worker; the gather step re-verifies exactly those bytes with the
independent verifier before the sweep reports the cell.  A rejected
artifact is a structured ``"certificate"`` cell error — never a result.
"""

import dataclasses
import json

import pytest

from repro.certify.verifier import verify_certificate
from repro.parallel import AttackJob, SweepScheduler
from repro.parallel.jobs import JobResult
from repro.parallel.scheduler import SweepCell

CERTIFIED_MATRIX = [
    AttackJob(builder="silent", n=12, t=8, certify=True),
    AttackJob(builder="leader-echo", n=12, t=8, certify=True),
]


class TestCertifiedSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_ship_verified_certificates(self, jobs):
        report = SweepScheduler(jobs=jobs).run(CERTIFIED_MATRIX)
        report.raise_errors()
        assert report.certificates_verified == len(CERTIFIED_MATRIX)
        assert (
            f"{len(CERTIFIED_MATRIX)} certificate(s) verified"
            in report.render()
        )
        for cell in report.cells:
            # The artifact travels once, as bytes; the live object is
            # stripped so outcomes stay backend-equal and picklable.
            assert cell.result.certificate is not None
            assert cell.result.value.certificate is None
            assert verify_certificate(cell.result.certificate).ok

    def test_artifacts_byte_identical_across_backends(self):
        serial = SweepScheduler(jobs=1).run(CERTIFIED_MATRIX)
        parallel = SweepScheduler(jobs=2).run(CERTIFIED_MATRIX)
        serial.raise_errors()
        parallel.raise_errors()
        assert serial.backend == "serial"
        assert parallel.backend == "process"
        for left, right in zip(serial.cells, parallel.cells):
            assert left.result.certificate == right.result.certificate

    def test_uncertified_cells_ship_nothing(self):
        report = SweepScheduler(jobs=1).run(
            [AttackJob(builder="silent", n=12, t=8)]
        )
        report.raise_errors()
        assert report.certificates_verified == 0
        assert report.cells[0].result.certificate is None
        assert "certificate" not in report.render()


class TestGatherRejection:
    def _certified_cell(self):
        report = SweepScheduler(jobs=1).run(CERTIFIED_MATRIX[:1])
        report.raise_errors()
        return report.cells[0]

    def test_corrupted_artifact_becomes_cell_error(self):
        cell = self._certified_cell()
        payload = json.loads(cell.result.certificate)
        payload["accounting"]["floor"] = 0.0
        forged = SweepCell(
            index=cell.index,
            key=cell.key,
            result=dataclasses.replace(
                cell.result,
                certificate=json.dumps(payload).encode("utf-8"),
            ),
            wall_seconds=cell.wall_seconds,
        )
        checked = SweepScheduler._verify_cell(forged)
        assert not checked.ok
        assert checked.error.kind == "certificate"
        assert "accounting.floor" in checked.error.message
        assert "REJECTED" in checked.error.detail
        # Identity survives; only the result is withheld.
        assert checked.key == cell.key
        assert checked.index == cell.index

    def test_intact_cells_pass_through_unchanged(self):
        cell = self._certified_cell()
        assert SweepScheduler._verify_cell(cell) is cell
        bare = SweepCell(index=0, key=("attack", "silent", 12, 8))
        assert SweepScheduler._verify_cell(bare) is bare
        no_cert = SweepCell(
            index=0,
            key=("attack", "silent", 12, 8),
            result=JobResult(
                key=("attack", "silent", 12, 8),
                value=None,
                wall_seconds=0.0,
            ),
        )
        assert SweepScheduler._verify_cell(no_cert) is no_cert
