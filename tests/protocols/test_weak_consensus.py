"""Tests for weak consensus — and the flooding counterexample that shows
why the omission model makes it genuinely hard (§3's framing)."""

from byzantine_strategies import mute, two_faced
from repro.lowerbound.bound import weak_consensus_floor
from repro.omission.isolation import isolate_group
from repro.protocols.weak_consensus import (
    broadcast_weak_consensus_spec,
    naive_flooding_spec,
)
from repro.sim.adversary import (
    ByzantineAdversary,
    CrashAdversary,
    OmissionSchedule,
    ScheduledOmissionAdversary,
)


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestBroadcastWeakConsensus:
    def test_weak_validity_both_bits(self):
        spec = broadcast_weak_consensus_spec(5, 2)
        assert decisions(spec.run_uniform(0)) == {0}
        assert decisions(spec.run_uniform(1)) == {1}

    def test_mixed_proposals_agree(self):
        spec = broadcast_weak_consensus_spec(5, 2)
        execution = spec.run([1, 0, 0, 1, 0])
        # Weak validity does not bind; agreement must.
        assert len(decisions(execution)) == 1

    def test_byzantine_leader_defaults(self):
        spec = broadcast_weak_consensus_spec(5, 2)
        adversary = ByzantineAdversary({0}, {0: mute()})
        execution = spec.run_uniform(0, adversary)
        assert decisions(execution) == {1}  # the default

    def test_agreement_under_two_faced_leader(self):
        spec = broadcast_weak_consensus_spec(6, 2)
        adversary = ByzantineAdversary({0}, {0: two_faced(0, 1)})
        execution = spec.run_uniform(0, adversary)
        assert len(decisions(execution)) == 1

    def test_omission_resilience(self):
        """Byzantine resilience subsumes the omission model of Lemma 1."""
        spec = broadcast_weak_consensus_spec(8, 4)
        for k in (1, 2, 3):
            execution = spec.run_uniform(
                0, isolate_group({6, 7}, k)
            )
            correct = {
                execution.decision(pid) for pid in execution.correct
            }
            assert len(correct) == 1
            assert None not in correct

    def test_respects_lemma1_floor(self):
        spec = broadcast_weak_consensus_spec(12, 10)
        execution = spec.run_uniform(0)
        assert execution.message_complexity() >= weak_consensus_floor(
            10
        )

    def test_dishonest_majority_tolerated(self):
        spec = broadcast_weak_consensus_spec(5, 4)
        execution = spec.run_uniform(
            0, CrashAdversary({1: 1, 2: 1, 3: 1, 4: 2})
        )
        correct = {
            execution.decision(pid) for pid in execution.correct
        }
        assert len(correct) == 1


class TestNaiveFloodingCounterexample:
    """The unsound protocol and the execution that breaks it.

    This is the §3 intuition in miniature: detectable faults tempt an
    algorithm into a cheap "default on silence" rule, and selective
    *last-round* send-omissions then split the correct processes.
    """

    def test_correct_under_crash_faults(self):
        """FloodSet logic is fine for crash faults — that's the trap."""
        spec = naive_flooding_spec(5, 2)
        execution = spec.run_uniform(0, CrashAdversary({0: 2, 1: 3}))
        correct = {
            execution.decision(pid) for pid in execution.correct
        }
        assert len(correct) == 1

    def test_fault_free_weak_validity(self):
        spec = naive_flooding_spec(5, 2)
        assert decisions(spec.run_uniform(0)) == {0}
        assert decisions(spec.run_uniform(1)) == {1}

    def test_last_round_selective_omission_splits_it(self):
        """One omission-faulty process (p0) whose proposal reaches only
        q=1, and only in the last round: q completes the all-zero picture
        and decides 0; every other correct process decides 1."""
        n, t = 5, 2
        spec = naive_flooding_spec(n, t)
        last_round = spec.rounds

        def drop(message):
            if message.sender != 0:
                return False
            if message.round < last_round:
                return True
            return message.receiver != 1

        adversary = ScheduledOmissionAdversary(
            {0},
            OmissionSchedule(
                send_drops=drop, receive_drops=lambda m: False
            ),
        )
        execution = spec.run_uniform(0, adversary)
        assert execution.decision(1) == 0
        assert execution.decision(2) == 1
        assert {1, 2} <= execution.correct
        # Two correct processes disagree: Agreement is broken with a
        # single omission-faulty process.
        assert len(decisions(execution)) == 2
