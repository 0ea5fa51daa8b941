"""Tests for Algorithm 1: the zero-message reduction (§4.2)."""

import pytest

from byzantine_strategies import mute
from repro.errors import TrivialProblemError, UnsolvableProblemError
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.strong_consensus import (
    authenticated_strong_consensus_spec,
)
from repro.reductions.weak_from_any import (
    derive_plan,
    plan_from_executions,
    reduce_weak_consensus,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary
from repro.validity.standard import (
    byzantine_broadcast_problem,
    constant_problem,
    strong_consensus_problem,
)

N, T = 5, 2


def decisions(execution):
    return set(execution.correct_decisions().values())


def always_zero_spec(n, t):
    """A degenerate 'algorithm' that decides 0 regardless of input."""
    from repro.protocols.base import ProtocolSpec
    from repro.sim.process import Process

    class AlwaysZero(Process):
        def outgoing(self, round_):
            return {}

        def deliver(self, round_, received):
            self.decide(0)

    return ProtocolSpec(
        name="always-zero",
        n=n,
        t=t,
        rounds=1,
        factory=lambda pid, v: AlwaysZero(pid, n, t, v),
    )


class TestPlanDerivation:
    def test_plan_from_strong_consensus(self):
        spec = authenticated_strong_consensus_spec(N, T)
        plan = derive_plan(spec, strong_consensus_problem(N, T))
        assert plan.v0 != plan.v1
        assert plan.proposals_for_zero == (0,) * N

    def test_plan_from_broadcast(self):
        spec = dolev_strong_spec(N, T)
        plan = derive_plan(spec, byzantine_broadcast_problem(N, T))
        assert plan.v0 != plan.v1

    def test_trivial_problem_rejected(self):
        """Algorithm 1 is undefined for trivial problems — there is no
        configuration excluding the fault-free decision."""
        spec = always_zero_spec(N, T)
        with pytest.raises(TrivialProblemError, match="trivial"):
            derive_plan(spec, constant_problem(N, T, value=0))

    def test_mismatched_parameters_rejected(self):
        spec = dolev_strong_spec(N, T)
        with pytest.raises(ValueError, match="problem for"):
            derive_plan(spec, byzantine_broadcast_problem(4, 1))

    def test_plan_from_executions_requires_difference(self):
        spec = dolev_strong_spec(N, T)
        with pytest.raises(UnsolvableProblemError, match="same value"):
            plan_from_executions(
                spec, ["v", 0, 0, 0, 0], ["v", 1, 1, 1, 1]
            )


class TestReductionCorrectness:
    @pytest.fixture
    def weak(self):
        spec = authenticated_strong_consensus_spec(N, T)
        return spec, reduce_weak_consensus(
            spec, strong_consensus_problem(N, T)
        )

    def test_weak_validity(self, weak):
        _, reduced = weak
        assert decisions(reduced.run_uniform(0)) == {0}
        assert decisions(reduced.run_uniform(1)) == {1}

    def test_agreement_under_byzantine_faults(self, weak):
        _, reduced = weak
        adversary = ByzantineAdversary({3, 4}, {3: mute(), 4: mute()})
        for bit in (0, 1):
            execution = reduced.run_uniform(bit, adversary)
            agreed = decisions(execution)
            assert len(agreed) == 1
            assert agreed <= {0, 1}

    def test_agreement_under_crash_faults(self, weak):
        _, reduced = weak
        execution = reduced.run_uniform(
            0, CrashAdversary({1: 2, 2: 1})
        )
        assert len(decisions(execution)) == 1

    def test_zero_message_overhead(self, weak):
        """The reduction's whole point: identical message complexity."""
        inner, reduced = weak
        for bit in (0, 1):
            outer_execution = reduced.run_uniform(bit)
            plan_proposals = (
                [0] * N if bit == 0 else None
            )
            # Compare against the inner algorithm run on the proposals
            # the reduction feeds it.
            machines = [reduced.factory(pid, bit) for pid in range(N)]
            inner_proposals = [
                machine.inner.proposal for machine in machines
            ]
            inner_execution = inner.run(inner_proposals)
            assert (
                outer_execution.message_complexity()
                == inner_execution.message_complexity()
            )

    def test_same_rounds_and_metadata(self, weak):
        inner, reduced = weak
        assert reduced.rounds == inner.rounds
        assert reduced.authenticated == inner.authenticated
        assert inner.name in reduced.name


class TestReductionFromBroadcast:
    def test_broadcast_anchor(self):
        spec = dolev_strong_spec(N, T)
        reduced = reduce_weak_consensus(
            spec, byzantine_broadcast_problem(N, T)
        )
        assert decisions(reduced.run_uniform(0)) == {0}
        assert decisions(reduced.run_uniform(1)) == {1}

    def test_lemma7_guard_fires_for_non_solutions(self):
        """Anchoring the reduction on an 'algorithm' that decides the
        same value under c_0 and c_1 trips the Lemma-7 consistency
        check: such an algorithm cannot solve the non-trivial problem."""
        with pytest.raises(UnsolvableProblemError, match="Lemma 7"):
            reduce_weak_consensus(
                always_zero_spec(N, T),
                byzantine_broadcast_problem(N, T),
            )

    def test_disagreeing_anchor_rejected(self):
        """An anchor whose fault-free run disagrees (the silent cheater
        under mixed proposals) is rejected while deriving the plan."""
        from repro.protocols.subquadratic import silent_cheater_spec
        from repro.validity.standard import strong_consensus_problem

        with pytest.raises(UnsolvableProblemError, match="disagrees"):
            reduce_weak_consensus(
                silent_cheater_spec(N, T),
                strong_consensus_problem(N, T),
            )


class TestUnauthenticatedBranch:
    def test_weak_consensus_from_phase_king(self):
        """Theorem 3's unauthenticated face: anchor Algorithm 1 on the
        (unauthenticated, n > 3t) King algorithm."""
        from repro.protocols.phase_king import phase_king_spec
        from repro.validity.standard import strong_consensus_problem

        n, t = 7, 2
        inner = phase_king_spec(n, t)
        reduced = reduce_weak_consensus(
            inner, strong_consensus_problem(n, t)
        )
        assert not reduced.authenticated
        assert decisions(reduced.run_uniform(0)) == {0}
        assert decisions(reduced.run_uniform(1)) == {1}
        # Zero-message overhead on the unauthenticated path too.
        assert (
            reduced.run_uniform(0).message_complexity()
            == inner.run_uniform(0).message_complexity()
        )

    def test_unauthenticated_reduction_survives_the_driver(self):
        from repro.lowerbound.driver import attack_weak_consensus
        from repro.protocols.phase_king import phase_king_spec
        from repro.validity.standard import strong_consensus_problem

        n, t = 13, 4
        inner = phase_king_spec(n, t)
        reduced = reduce_weak_consensus(
            inner, strong_consensus_problem(n, t)
        )
        outcome = attack_weak_consensus(reduced)
        assert not outcome.found_violation


class TestTheorem3Composition:
    def test_reduced_weak_consensus_is_attackable_object(self):
        """The composition that proves Theorem 3: the reduction output is
        a weak consensus algorithm the Theorem-2 driver accepts."""
        from repro.lowerbound.driver import attack_weak_consensus

        spec = authenticated_strong_consensus_spec(6, 2)
        reduced = reduce_weak_consensus(
            spec, strong_consensus_problem(6, 2)
        )
        outcome = attack_weak_consensus(reduced)
        # A correct algorithm: the pipeline must NOT find a violation.
        assert not outcome.found_violation
