"""Ablations A1–A5: the design choices the attack does not depend on.

* A1 — partition sizing: the paper fixes |B| = |C| = t/4, but the attack
  works for any disjoint non-empty pair within the budget.
* A2 — committee size: a bigger committee raises the cheater's cost but
  never saves it; the only way out is Ω(t²) (Theorem 2).
* A3 — the Dolev–Reischuk Ω(nt) *signature* floor on the authenticated
  broadcast substrate (§6).
* A4 — the paper's exact regime: t divisible by 8, |B| = |C| = t/4.
* A5 — Dolev–Strong decides in exactly t + 1 rounds, the [52] floor.
"""

import pytest

from signature_count import (
    dolev_reischuk_signature_floor,
    signature_complexity,
)
from repro.lowerbound.driver import attack_weak_consensus
from repro.lowerbound.partition import ABCPartition, paper_partition
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
)


class TestA1PartitionSizing:
    @pytest.mark.parametrize(
        "size_b,size_c", [(1, 1), (2, 2), (4, 4), (1, 4), (3, 2)]
    )
    def test_every_legal_split_breaks_leader_echo(self, size_b, size_c):
        n, t = 16, 8
        partition = ABCPartition(
            n=n,
            t=t,
            group_b=frozenset(range(n - size_b - size_c, n - size_c)),
            group_c=frozenset(range(n - size_c, n)),
        )
        outcome = attack_weak_consensus(leader_echo_spec(n, t), partition)
        assert outcome.found_violation


class TestA2CommitteeSize:
    def test_no_committee_size_rescues_the_cheater(self):
        n, t = 20, 16
        costs = []
        for size in (1, 2, 4, 8):
            spec = committee_cheater_spec(n, t, committee_size=size)
            costs.append(spec.run_uniform(0).message_complexity())
            assert attack_weak_consensus(spec).found_violation
        # Cost grows with the committee, uselessly.
        assert costs[-1] > costs[0]


class TestA3SignatureFloor:
    @pytest.mark.parametrize("n,t", [(6, 2), (10, 4), (14, 6), (18, 8)])
    def test_dolev_strong_within_a_constant_of_nt(self, n, t):
        execution = dolev_strong_spec(n, t).run_uniform("v")
        signatures = signature_complexity(execution)
        assert signatures >= dolev_reischuk_signature_floor(n, t) / 4


class TestA4PaperRegime:
    @pytest.mark.parametrize(
        "builder", [leader_echo_spec, ring_token_spec]
    )
    def test_quarter_partitions_break_the_cheater(self, builder):
        n, t = 24, 16
        outcome = attack_weak_consensus(
            builder(n, t), paper_partition(n, t)
        )
        assert outcome.found_violation


class TestA5RoundComplexity:
    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_dolev_strong_decides_in_t_plus_one_rounds(self, t):
        execution = dolev_strong_spec(t + 4, t).run_uniform("v")
        rounds = {
            execution.behavior(pid).decision_round
            for pid in execution.correct
        }
        assert max(rounds) == t + 1
