"""Tests for interactive consistency (authenticated and unauthenticated)."""

from byzantine_strategies import garbage, mute, two_faced
from repro.protocols.dolev_strong import SENDER_FAULTY
from repro.protocols.interactive_consistency import (
    authenticated_ic_spec,
    ic_spec,
    unauthenticated_ic_spec,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestAuthenticatedIC:
    def test_fault_free_vector(self):
        spec = authenticated_ic_spec(4, 1)
        execution = spec.run(["a", "b", "c", "d"])
        assert decisions(execution) == {("a", "b", "c", "d")}

    def test_crashed_slot_marked_faulty(self):
        spec = authenticated_ic_spec(4, 1)
        execution = spec.run(
            ["a", "b", "c", "d"], CrashAdversary({2: 1})
        )
        agreed = decisions(execution)
        assert len(agreed) == 1
        vector = next(iter(agreed))
        assert vector[0] == "a"
        assert vector[1] == "b"
        assert vector[2] == SENDER_FAULTY
        assert vector[3] == "d"

    def test_ic_validity_under_byzantine(self):
        spec = authenticated_ic_spec(5, 2)
        adversary = ByzantineAdversary(
            {1, 4}, {1: garbage(), 4: mute()}
        )
        execution = spec.run(["a", "b", "c", "d", "e"], adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        vector = next(iter(agreed))
        for pid in (0, 2, 3):
            assert vector[pid] == execution.proposals()[pid]

    def test_dishonest_majority(self):
        """Authenticated IC holds for any t < n (Theorem 4, auth branch)."""
        spec = authenticated_ic_spec(5, 3)
        adversary = ByzantineAdversary(
            {1, 2, 3}, {pid: mute() for pid in (1, 2, 3)}
        )
        execution = spec.run(["a", "b", "c", "d", "e"], adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        vector = next(iter(agreed))
        assert vector[0] == "a"
        assert vector[4] == "e"

    def test_horizon_t_plus_one(self):
        assert authenticated_ic_spec(5, 2).rounds == 3


class TestUnauthenticatedIC:
    def test_fault_free_vector(self):
        spec = unauthenticated_ic_spec(4, 1)
        execution = spec.run([1, 0, 1, 0])
        assert decisions(execution) == {(1, 0, 1, 0)}

    def test_two_faced_does_not_split(self):
        spec = unauthenticated_ic_spec(7, 2)
        adversary = ByzantineAdversary(
            {5, 6}, {5: two_faced(0, 1), 6: two_faced(1, 0)}
        )
        execution = spec.run([0, 1, 0, 1, 0, 1, 0], adversary)
        assert len(decisions(execution)) == 1


class TestSelector:
    def test_selects_by_setting(self):
        assert ic_spec(4, 1, authenticated=True).authenticated
        assert not ic_spec(4, 1, authenticated=False).authenticated

    def test_unauthenticated_requires_n_over_3t(self):
        import pytest

        spec = ic_spec(6, 2, authenticated=False)
        with pytest.raises(ValueError, match="n > 3t"):
            spec.factory(0, 0)
