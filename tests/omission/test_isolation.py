"""Tests for repro.omission.isolation (Definition 1)."""

import pytest

from repro.errors import AdversaryError, ModelViolation
from repro.omission.isolation import (
    IsolationAdversary,
    check_isolated,
    isolate_group,
)
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.message import Message


class TestAdversaryConstruction:
    def test_members_become_corrupted(self):
        adversary = isolate_group({2, 3}, 1)
        assert adversary.corrupted == {2, 3}

    def test_rejects_empty_group(self):
        with pytest.raises(AdversaryError, match="empty group"):
            IsolationAdversary({frozenset(): 1})

    def test_rejects_overlapping_groups(self):
        with pytest.raises(AdversaryError, match="disjoint"):
            IsolationAdversary(
                {frozenset({1, 2}): 1, frozenset({2, 3}): 1}
            )

    def test_rejects_round_zero(self):
        with pytest.raises(AdversaryError, match=">= 1"):
            isolate_group({1}, 0)


class TestDropRule:
    def test_drops_outside_traffic_from_round_k(self):
        adversary = isolate_group({2, 3}, 4)
        assert adversary.receive_omits(Message(0, 2, 4))
        assert adversary.receive_omits(Message(0, 3, 9))

    def test_keeps_early_traffic(self):
        adversary = isolate_group({2, 3}, 4)
        assert not adversary.receive_omits(Message(0, 2, 3))

    def test_keeps_in_group_traffic(self):
        adversary = isolate_group({2, 3}, 1)
        assert not adversary.receive_omits(Message(3, 2, 7))

    def test_never_send_omits(self):
        adversary = isolate_group({2, 3}, 1)
        assert not adversary.send_omits(Message(2, 0, 5))

    def test_two_groups_isolated_independently(self):
        adversary = IsolationAdversary(
            {frozenset({1}): 2, frozenset({4}): 5}
        )
        assert adversary.receive_omits(Message(0, 1, 2))
        assert not adversary.receive_omits(Message(0, 4, 4))
        assert adversary.receive_omits(Message(0, 4, 5))


class TestRecordedExecutionChecks:
    def test_simulated_isolation_satisfies_definition(self):
        spec = phase_king_spec(7, 2)
        for k in (1, 3, 5):
            execution = spec.run_uniform(0, isolate_group({5, 6}, k))
            check_isolated(execution, {5, 6}, k)

    def test_crash_is_not_isolation(self):
        spec = broadcast_weak_consensus_spec(5, 2)
        # Crash the designated broadcaster: it send-omits its round-1
        # broadcast, which Definition 1 forbids.  (Crashing a process
        # with nothing to send *is* indistinguishable from isolating it.)
        execution = spec.run_uniform(0, CrashAdversary({0: 1}))
        with pytest.raises(ModelViolation, match="send-omits"):
            check_isolated(execution, {0}, 1)

    def test_wrong_round_rejected(self):
        spec = phase_king_spec(7, 2)
        execution = spec.run_uniform(0, isolate_group({5, 6}, 3))
        # Claiming isolation from round 1 fails: rounds 1-2 traffic was
        # received, which isolation-from-1 requires dropping.
        with pytest.raises(ModelViolation, match="requires dropping"):
            check_isolated(execution, {5, 6}, 1)

    def test_group_must_be_faulty(self):
        spec = phase_king_spec(7, 2)
        execution = spec.run_uniform(0)
        with pytest.raises(ModelViolation, match="not within faulty"):
            check_isolated(execution, {5}, 1)

    def test_group_must_fit_budget(self):
        spec = phase_king_spec(7, 2)
        execution = spec.run_uniform(0, isolate_group({5, 6}, 1))
        with pytest.raises(ModelViolation, match="exceeds t"):
            check_isolated(execution, {4, 5, 6}, 1)

    def test_empty_group_rejected(self):
        spec = phase_king_spec(7, 2)
        execution = spec.run_uniform(0)
        with pytest.raises(ModelViolation, match="empty"):
            check_isolated(execution, set(), 1)

    def test_whole_system_rejected(self):
        """Isolating all of Π is impossible: |G| <= t < n forces a proper
        subset, so the size check fires first."""
        spec = broadcast_weak_consensus_spec(4, 3)
        execution = spec.run_uniform(0, isolate_group({1, 2, 3}, 1))
        with pytest.raises(ModelViolation, match="exceeds t"):
            check_isolated(execution, {0, 1, 2, 3}, 1)
