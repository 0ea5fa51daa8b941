"""Tests for the strong consensus wrappers."""

import pytest

from byzantine_strategies import garbage, mute, two_faced
from repro.protocols.strong_consensus import (
    authenticated_strong_consensus_spec,
    unauthenticated_strong_consensus_spec,
)
from repro.sim.adversary import ByzantineAdversary


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestAuthenticatedStrongConsensus:
    def test_requires_n_over_2t(self):
        with pytest.raises(ValueError, match="n > 2t"):
            authenticated_strong_consensus_spec(4, 2)

    def test_strong_validity_fault_free(self):
        spec = authenticated_strong_consensus_spec(5, 2)
        assert decisions(spec.run_uniform("v")) == {"v"}

    def test_strong_validity_with_byzantine_minority(self):
        """All correct propose 1; two Byzantine processes cannot stop it
        — the heart of Strong Validity at n > 2t."""
        spec = authenticated_strong_consensus_spec(5, 2)
        adversary = ByzantineAdversary(
            {3, 4}, {3: two_faced(0, 1), 4: garbage()}
        )
        execution = spec.run([1, 1, 1, 0, 0], adversary)
        assert decisions(execution) == {1}

    def test_agreement_on_split_proposals(self):
        spec = authenticated_strong_consensus_spec(5, 2)
        adversary = ByzantineAdversary({4}, {4: mute()})
        execution = spec.run([0, 1, 0, 1, 1], adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        assert None not in agreed

    def test_t_equals_two_n_five_boundary(self):
        """n = 2t + 1 is exactly Theorem 5's edge of solvability."""
        spec = authenticated_strong_consensus_spec(5, 2)
        adversary = ByzantineAdversary(
            {0, 1}, {0: mute(), 1: mute()}
        )
        execution = spec.run(["w", "w", "w", "w", "w"], adversary)
        assert decisions(execution) == {"w"}


class TestUnauthenticatedStrongConsensus:
    def test_phase_king_variant(self):
        spec = unauthenticated_strong_consensus_spec(7, 2)
        assert "phase-king" in spec.name
        assert decisions(spec.run_uniform(1)) == {1}

    def test_eig_variant(self):
        spec = unauthenticated_strong_consensus_spec(
            7, 2, algorithm="eig"
        )
        assert "eig" in spec.name
        assert decisions(spec.run_uniform(0)) == {0}

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            unauthenticated_strong_consensus_spec(
                7, 2, algorithm="raft"
            )

    def test_variants_agree_under_attack(self):
        adversary = ByzantineAdversary({6}, {6: two_faced(0, 1)})
        for algorithm in ("phase-king", "eig"):
            spec = unauthenticated_strong_consensus_spec(
                7, 2, algorithm=algorithm
            )
            execution = spec.run([1, 1, 1, 1, 1, 1, 0], adversary)
            assert decisions(execution) == {1}
