"""Tests for repro.sim.execution: the A.1.6 execution guarantees."""

import pytest

from repro.errors import ModelViolation
from repro.protocols.subquadratic import leader_echo_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.execution import (
    Execution,
    ExecutionSummary,
    check_execution,
    check_transitions,
    majority_decision,
)
from repro.sim.state import Behavior


def run_small(adversary=None):
    spec = broadcast_weak_consensus_spec(4, 2)
    return spec, spec.run_uniform(0, adversary)


class TestExecutionAccessors:
    def test_correct_is_complement_of_faulty(self):
        _, execution = run_small(CrashAdversary({3: 1}))
        assert execution.faulty == {3}
        assert execution.correct == {0, 1, 2}

    def test_decisions_and_proposals(self):
        _, execution = run_small()
        assert execution.proposals() == {pid: 0 for pid in range(4)}
        assert execution.correct_decisions() == {
            pid: 0 for pid in range(4)
        }

    def test_message_complexity_counts_correct_only(self):
        _, fault_free = run_small()
        _, crashed = run_small(CrashAdversary({1: 1}))
        # p1's sends are omitted from round 1; correct-only counting must
        # not exceed the fault-free total.
        assert (
            crashed.message_complexity()
            <= fault_free.message_complexity()
        )
        assert crashed.message_complexity() < crashed.n * (
            crashed.n - 1
        ) * (crashed.rounds + 1)

    def test_messages_in_round(self):
        _, execution = run_small()
        # Round 1: the designated sender broadcasts to n-1 processes.
        assert len(execution.messages_in_round(1)) == 3

    def test_prefix(self):
        _, execution = run_small()
        prefix = execution.prefix(1)
        assert prefix.rounds == 1
        check_execution(prefix)


class TestValidityChecker:
    def test_simulated_executions_pass(self):
        _, execution = run_small(CrashAdversary({2: 2}))
        check_execution(execution)

    def _tamper(self, execution, pid, mutate):
        """Replace p's behavior via `mutate(fragments) -> fragments`."""
        behavior = execution.behavior(pid)
        new_behavior = Behavior(
            tuple(mutate(list(behavior.fragments))),
            final_state=behavior.final_state,
        )
        behaviors = list(execution.behaviors)
        behaviors[pid] = new_behavior
        return Execution(
            n=execution.n,
            t=execution.t,
            faulty=execution.faulty,
            behaviors=tuple(behaviors),
        )

    def test_detects_budget_overflow(self):
        _, execution = run_small()
        bloated = Execution(
            n=4,
            t=2,
            faulty=frozenset({0, 1, 2}),
            behaviors=execution.behaviors,
        )
        with pytest.raises(ModelViolation, match="exceeds t"):
            check_execution(bloated)

    def test_detects_send_validity_breach(self):
        _, execution = run_small()

        def drop_received(fragments):
            first = fragments[0]
            fragments[0] = first.replacing(received=frozenset())
            return fragments

        # p1 received the sender's round-1 message; erasing the receipt
        # (without a matching omission) breaks send-validity.
        tampered = self._tamper(execution, 1, drop_received)
        with pytest.raises(ModelViolation, match="send-validity"):
            check_execution(tampered)

    def test_detects_receive_validity_breach(self):
        from repro.sim.message import Message

        _, execution = run_small()

        def inject_ghost(fragments):
            first = fragments[0]
            ghost = Message(2, 1, 1, ("ghost",))
            fragments[0] = first.replacing(
                received=first.received | {ghost}
            )
            return fragments

        tampered = self._tamper(execution, 1, inject_ghost)
        with pytest.raises(ModelViolation, match="receive-validity"):
            check_execution(tampered)

    def test_detects_omission_validity_breach(self):
        spec = broadcast_weak_consensus_spec(4, 2)
        execution = spec.run_uniform(0, CrashAdversary({2: 1}))
        # Relabel the omitting process as correct.
        relabeled = Execution(
            n=4,
            t=2,
            faulty=frozenset(),
            behaviors=execution.behaviors,
        )
        with pytest.raises(ModelViolation, match="omission-validity"):
            check_execution(relabeled)


class TestTransitions:
    def test_replay_matches_recording(self):
        spec, execution = run_small(CrashAdversary({3: 2}))
        check_transitions(execution, spec.factory)

    def test_replay_detects_foreign_algorithm(self):
        _, execution = run_small()
        other = leader_echo_spec(4, 2)
        with pytest.raises(ModelViolation):
            check_transitions(execution, other.factory)


class TestGroupHelpers:
    def test_majority_decision(self):
        _, execution = run_small()
        assert majority_decision(execution, [0, 1, 2]) == 0

    def test_majority_decision_none_without_majority(self):
        spec = leader_echo_spec(4, 2)
        execution = spec.run_uniform(0, rounds=1)
        assert majority_decision(execution, [0, 1]) is None


class TestSummary:
    def test_render_mentions_parameters(self):
        _, execution = run_small()
        text = ExecutionSummary.of(execution).render()
        assert "n=4" in text
        assert "t=2" in text
        assert "msgs(correct)=" in text
