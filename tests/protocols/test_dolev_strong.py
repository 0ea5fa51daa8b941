"""Tests for Dolev–Strong broadcast: Sender Validity, Agreement,
Termination for any t < n, under the classic Byzantine attacks."""

import pytest

from byzantine_strategies import (
    crash_at,
    equivocating_sender,
    garbage,
    mute,
)
from repro.protocols.dolev_strong import (
    SENDER_FAULTY,
    dolev_strong_spec,
    scheme_for_spec,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestFaultFree:
    def test_sender_value_decided(self):
        spec = dolev_strong_spec(5, 2)
        execution = spec.run(["payload", 0, 0, 0, 0])
        assert decisions(execution) == {"payload"}

    def test_works_for_any_value_type(self):
        spec = dolev_strong_spec(4, 1)
        execution = spec.run([("tuple", 1), 0, 0, 0])
        assert decisions(execution) == {("tuple", 1)}

    def test_non_default_sender(self):
        spec = dolev_strong_spec(5, 2, sender=3)
        execution = spec.run([0, 0, 0, "from-three", 0])
        assert decisions(execution) == {"from-three"}

    def test_t_zero_single_round(self):
        spec = dolev_strong_spec(3, 0)
        assert spec.rounds == 1
        execution = spec.run(["v", 0, 0])
        assert decisions(execution) == {"v"}

    def test_decides_within_t_plus_one_rounds(self):
        spec = dolev_strong_spec(5, 3)
        execution = spec.run(["v", 0, 0, 0, 0])
        assert all(
            execution.behavior(pid).decision_round == spec.t + 1
            for pid in range(5)
        )


class TestCrashFaults:
    def test_crashed_sender_yields_common_default(self):
        spec = dolev_strong_spec(5, 2)
        execution = spec.run(
            ["v", 0, 0, 0, 0], CrashAdversary({0: 1})
        )
        assert decisions(execution) == {SENDER_FAULTY}

    def test_sender_crash_mid_broadcast(self):
        """The sender reaches some relays; Agreement must still hold."""
        spec = dolev_strong_spec(6, 2)
        from repro.sim.adversary import (
            OmissionSchedule,
            ScheduledOmissionAdversary,
        )

        adversary = ScheduledOmissionAdversary(
            {0},
            OmissionSchedule(
                send_drops=lambda m: m.receiver >= 3,
                receive_drops=lambda m: False,
            ),
        )
        execution = spec.run(["v", 0, 0, 0, 0, 0], adversary)
        assert len(decisions(execution)) == 1

    def test_crashed_relay_harmless(self):
        spec = dolev_strong_spec(5, 2)
        execution = spec.run(
            ["v", 0, 0, 0, 0], CrashAdversary({2: 2, 3: 1})
        )
        assert decisions(execution) == {"v"}


class TestByzantineAttacks:
    def test_equivocating_sender_never_splits(self):
        spec = dolev_strong_spec(6, 2)
        scheme = scheme_for_spec(6)
        adversary = ByzantineAdversary(
            {0},
            {0: equivocating_sender(scheme, "low", "high")},
        )
        execution = spec.run(["x", 0, 0, 0, 0, 0], adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        # With a 2-value equivocation, honest processes converge on the
        # provably-faulty default (both chains circulate in round 2).
        assert agreed == {SENDER_FAULTY}

    def test_mute_sender(self):
        spec = dolev_strong_spec(5, 2)
        adversary = ByzantineAdversary({0}, {0: mute()})
        execution = spec.run(["v", 0, 0, 0, 0], adversary)
        assert decisions(execution) == {SENDER_FAULTY}

    def test_garbage_relays_ignored(self):
        spec = dolev_strong_spec(6, 2)
        adversary = ByzantineAdversary(
            {2, 3}, {2: garbage(), 3: garbage()}
        )
        execution = spec.run(["v", 0, 0, 0, 0, 0], adversary)
        assert decisions(execution) == {"v"}

    def test_late_crash_relay_with_byzantine_helper(self):
        spec = dolev_strong_spec(7, 3)
        scheme = scheme_for_spec(7)
        adversary = ByzantineAdversary(
            {0, 4},
            {
                0: equivocating_sender(scheme, 1, 2),
                4: crash_at(2),
            },
        )
        execution = spec.run([0] * 7, adversary)
        assert len(decisions(execution)) == 1

    def test_dishonest_majority_tolerated(self):
        """Authenticated broadcast survives t >= n/2 (unlike any
        unauthenticated algorithm — Theorem 4's other branch)."""
        spec = dolev_strong_spec(5, 3)
        adversary = ByzantineAdversary(
            {1, 2, 3}, {pid: mute() for pid in (1, 2, 3)}
        )
        execution = spec.run(["v", 0, 0, 0, 0], adversary)
        assert decisions(execution) == {"v"}


class TestMessageComplexity:
    def test_quadratic_in_fault_free_runs(self):
        spec = dolev_strong_spec(8, 3)
        execution = spec.run(["v"] + [0] * 7)
        # Round 1: n-1 sends; round 2: every relay broadcasts once.
        expected = (8 - 1) + (8 - 1) * (8 - 1)
        assert execution.message_complexity() == expected


class TestGuards:
    def test_signer_must_match_pid(self):
        scheme = scheme_for_spec(4)
        from repro.protocols.dolev_strong import DolevStrongProcess

        with pytest.raises(ValueError, match="signer"):
            DolevStrongProcess(
                1,
                4,
                1,
                0,
                sender=0,
                scheme=scheme,
                signer=scheme.signer_for(2),
            )
