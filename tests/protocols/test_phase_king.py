"""Tests for the King algorithm (n > 3t strong consensus)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzantine_strategies import garbage, mute, two_faced
from repro.protocols.phase_king import PhaseKingProcess, phase_king_spec
from repro.sim.adversary import ByzantineAdversary, CrashAdversary


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestStructure:
    def test_rejects_n_at_most_3t(self):
        with pytest.raises(ValueError, match="n > 3t"):
            phase_king_spec(9, 3).factory(0, 0)

    def test_phase_round_mapping(self):
        assert PhaseKingProcess.phase_and_step(1) == (1, 0)
        assert PhaseKingProcess.phase_and_step(3) == (1, 2)
        assert PhaseKingProcess.phase_and_step(4) == (2, 0)

    def test_horizon_is_three_rounds_per_phase(self):
        assert phase_king_spec(4, 1).rounds == 6
        assert phase_king_spec(7, 2).rounds == 9


class TestFaultFree:
    def test_unanimous_decided(self):
        spec = phase_king_spec(4, 1)
        assert decisions(spec.run_uniform(0)) == {0}
        assert decisions(spec.run_uniform(1)) == {1}

    def test_mixed_agreement(self):
        spec = phase_king_spec(7, 2)
        execution = spec.run([0, 1, 0, 1, 0, 1, 0])
        assert len(decisions(execution)) == 1

    def test_multivalued_domain(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run_uniform("value-x")
        assert decisions(execution) == {"value-x"}

    def test_multivalued_strong_validity_under_byzantine(self):
        """The quorum arguments are domain-agnostic: strings behave like
        bits, even with a two-faced Byzantine process."""
        spec = phase_king_spec(7, 2)
        adversary = ByzantineAdversary(
            {5, 6}, {5: two_faced("red", "blue"), 6: mute()}
        )
        execution = spec.run(["red"] * 5 + ["blue", "blue"], adversary)
        assert decisions(execution) == {"red"}


class TestByzantine:
    def test_strong_validity_with_byzantine_king(self):
        """Phase 1's king (p0) is Byzantine; unanimity must still win."""
        spec = phase_king_spec(7, 2)
        adversary = ByzantineAdversary(
            {0, 1}, {0: two_faced(0, 1), 1: garbage()}
        )
        execution = spec.run([0, 0, 1, 1, 1, 1, 1], adversary)
        assert decisions(execution) == {1}

    def test_agreement_with_two_byzantine(self):
        spec = phase_king_spec(7, 2)
        adversary = ByzantineAdversary(
            {2, 5}, {2: two_faced(0, 1), 5: mute()}
        )
        execution = spec.run([0, 1, 0, 1, 0, 1, 0], adversary)
        assert len(decisions(execution)) == 1

    def test_crashing_kings(self):
        """Kings of the first two phases crash; phase 3's king saves it."""
        spec = phase_king_spec(7, 2)
        execution = spec.run(
            [0, 1, 0, 1, 0, 1, 1], CrashAdversary({0: 1, 1: 4})
        )
        agreed = decisions(execution)
        assert len(agreed) == 1
        assert None not in agreed

    @settings(max_examples=20, deadline=None)
    @given(
        proposals=st.lists(st.integers(0, 1), min_size=7, max_size=7),
        corrupted=st.sets(st.integers(0, 6), min_size=1, max_size=2),
        pick=st.sampled_from(["mute", "garbage", "two-faced"]),
    )
    def test_agreement_and_validity_property(
        self, proposals, corrupted, pick
    ):
        strategies = {
            "mute": mute(),
            "garbage": garbage(),
            "two-faced": two_faced(0, 1),
        }
        spec = phase_king_spec(7, 2)
        adversary = ByzantineAdversary(
            corrupted, {pid: strategies[pick] for pid in corrupted}
        )
        execution = spec.run(proposals, adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        assert None not in agreed
        correct_proposals = {
            proposals[pid] for pid in execution.correct
        }
        if len(correct_proposals) == 1:
            assert agreed == correct_proposals
