"""Tests for violation witnesses and their from-scratch verifier."""

import pytest

from repro.errors import ModelViolation
from repro.lowerbound.witnesses import (
    ViolationKind,
    ViolationWitness,
    verify_witness,
)
from repro.omission.isolation import isolate_group
from repro.omission.swap import swap_omission
from repro.protocols.subquadratic import (
    leader_echo_spec,
    silent_cheater_spec,
)


def agreement_witness():
    """A genuine agreement violation for the leader-echo cheater."""
    spec = leader_echo_spec(8, 4)
    isolated = spec.run_uniform(0, isolate_group({7}, 1))
    swapped = swap_omission(isolated, 7)
    witness = ViolationWitness(
        kind=ViolationKind.AGREEMENT,
        execution=swapped,
        culprit=7,
        counterpart=1,
        note="test witness",
    )
    return spec, witness


class TestVerifier:
    def test_accepts_genuine_agreement_witness(self):
        spec, witness = agreement_witness()
        verify_witness(witness, spec.factory)

    def test_rejects_faulty_culprit(self):
        spec, witness = agreement_witness()
        bogus = ViolationWitness(
            kind=ViolationKind.AGREEMENT,
            execution=witness.execution,
            culprit=0,  # the leader is faulty after the swap
            counterpart=1,
        )
        with pytest.raises(ModelViolation, match="not correct"):
            verify_witness(bogus, spec.factory)

    def test_rejects_agreeing_parties(self):
        spec, witness = agreement_witness()
        bogus = ViolationWitness(
            kind=ViolationKind.AGREEMENT,
            execution=witness.execution,
            culprit=1,
            counterpart=2,  # both decided 0
        )
        with pytest.raises(ModelViolation, match="both decided"):
            verify_witness(bogus, spec.factory)

    def test_rejects_missing_counterpart(self):
        spec, witness = agreement_witness()
        bogus = ViolationWitness(
            kind=ViolationKind.AGREEMENT,
            execution=witness.execution,
            culprit=7,
        )
        with pytest.raises(ModelViolation, match="counterpart"):
            verify_witness(bogus, spec.factory)

    def test_rejects_wrong_algorithm(self):
        _, witness = agreement_witness()
        other = silent_cheater_spec(8, 4)
        with pytest.raises(ModelViolation):
            verify_witness(witness, other.factory)

    def test_rejects_fake_termination_claim(self):
        spec, witness = agreement_witness()
        bogus = ViolationWitness(
            kind=ViolationKind.TERMINATION,
            execution=witness.execution,
            culprit=7,  # decided 1, so the claim is false
        )
        with pytest.raises(ModelViolation, match="decided"):
            verify_witness(bogus, spec.factory)

    def test_weak_validity_witness_requirements(self):
        spec = silent_cheater_spec(4, 2)
        execution = spec.run([0, 0, 1, 0])
        non_unanimous = ViolationWitness(
            kind=ViolationKind.WEAK_VALIDITY,
            execution=execution,
            culprit=2,
        )
        with pytest.raises(ModelViolation, match="unanimous"):
            verify_witness(non_unanimous, spec.factory)

    def test_weak_validity_witness_must_be_fault_free(self):
        spec = leader_echo_spec(6, 2)
        execution = spec.run_uniform(0, isolate_group({5}, 1))
        bogus = ViolationWitness(
            kind=ViolationKind.WEAK_VALIDITY,
            execution=execution,
            culprit=1,  # correct, so the fault-free check is reached
        )
        with pytest.raises(ModelViolation, match="fault-free"):
            verify_witness(bogus, spec.factory)

    def test_correct_decision_is_not_a_weak_validity_breach(self):
        spec = silent_cheater_spec(4, 2)
        execution = spec.run_uniform(0)
        bogus = ViolationWitness(
            kind=ViolationKind.WEAK_VALIDITY,
            execution=execution,
            culprit=0,
        )
        with pytest.raises(ModelViolation, match="decided the unanimous"):
            verify_witness(bogus, spec.factory)


class TestSummary:
    def test_summary_shows_decisions(self):
        spec, witness = agreement_witness()
        text = witness.summary()
        assert "agreement" in text
        assert "decisions=" in text
