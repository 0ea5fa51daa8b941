"""Execution-level tests of Lemma 7 and Lemma 8 (necessity of CC).

Lemma 7: in any execution corresponding to input configuration ``c``, a
correct decision lies in ``∩_{c' ∈ Cnt(c)} val(c')``.  Lemma 8 derives the
necessity of CC from it.  These tests run *real algorithms* and check
their decisions against the containment intersection — the empirical face
of the necessity direction of Theorem 4.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from byzantine_strategies import garbage, mute, two_faced
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.strong_consensus import (
    authenticated_strong_consensus_spec,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary
from repro.validity.containment import admissible_under_containment
from repro.validity.input_config import InputConfig
from repro.validity.standard import (
    byzantine_broadcast_problem,
    strong_consensus_problem,
)


def input_conf_of(execution):
    return InputConfig.from_mapping(
        execution.n,
        execution.t,
        {
            pid: execution.proposals()[pid]
            for pid in execution.correct
        },
    )


def correct_decision(execution):
    agreed = {execution.decision(pid) for pid in execution.correct}
    assert len(agreed) == 1
    return next(iter(agreed))


class TestLemma7OnStrongConsensus:
    def test_fault_free_decisions_in_intersection(self):
        n, t = 5, 2
        problem = strong_consensus_problem(n, t)
        spec = authenticated_strong_consensus_spec(n, t)
        for proposals in ([0] * n, [1] * n, [0, 1, 0, 1, 1]):
            execution = spec.run(list(proposals))
            decided = correct_decision(execution)
            admissible = admissible_under_containment(
                problem, input_conf_of(execution)
            )
            assert decided in admissible

    @settings(max_examples=15, deadline=None)
    @given(
        proposals=st.lists(st.integers(0, 1), min_size=5, max_size=5),
        corrupted=st.sets(st.integers(0, 4), min_size=1, max_size=2),
        pick=st.sampled_from(["mute", "garbage", "two-faced", "crash"]),
    )
    def test_byzantine_decisions_in_intersection(
        self, proposals, corrupted, pick
    ):
        """Property: Lemma 7 holds against live adversaries — no
        decision ever leaves the containment intersection of the actual
        input configuration."""
        n, t = 5, 2
        problem = strong_consensus_problem(n, t)
        spec = authenticated_strong_consensus_spec(n, t)
        if pick == "crash":
            adversary = CrashAdversary(
                {pid: 1 + pid % 3 for pid in corrupted}
            )
        else:
            strategies = {
                "mute": mute(),
                "garbage": garbage(),
                "two-faced": two_faced(0, 1),
            }
            adversary = ByzantineAdversary(
                corrupted,
                {pid: strategies[pick] for pid in corrupted},
            )
        execution = spec.run(proposals, adversary)
        decided = correct_decision(execution)
        admissible = admissible_under_containment(
            problem, input_conf_of(execution)
        )
        assert decided in admissible


class TestLemma7OnBroadcast:
    def test_sender_validity_via_containment(self):
        """With the sender correct, the intersection is the singleton of
        its proposal — Dolev–Strong must land exactly there."""
        n, t = 4, 1
        problem = byzantine_broadcast_problem(n, t)
        spec = dolev_strong_spec(n, t)
        execution = spec.run([1, 0, 0, 0], CrashAdversary({2: 1}))
        decided = correct_decision(execution)
        admissible = admissible_under_containment(
            problem, input_conf_of(execution)
        )
        assert admissible == {1}
        assert decided == 1

    def test_faulty_sender_keeps_wide_intersection(self):
        n, t = 4, 1
        problem = byzantine_broadcast_problem(n, t)
        spec = dolev_strong_spec(n, t)
        adversary = ByzantineAdversary({0}, {0: mute()})
        execution = spec.run([1, 0, 0, 0], adversary)
        decided = correct_decision(execution)
        admissible = admissible_under_containment(
            problem, input_conf_of(execution)
        )
        # Every output (including the public default) stays admissible.
        assert decided in admissible
