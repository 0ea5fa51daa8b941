"""Tests for repro.omission.merge (Algorithm 5 / Definition 2 / Lemma 16)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.omission.isolation import check_isolated, isolate_group
from repro.omission.merge import (
    MergeSpec,
    check_merge_inputs,
    merge,
    uniform_proposal,
)
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.state import behaviors_indistinguishable

N, T = 7, 4
GROUP_B = frozenset({5})
GROUP_C = frozenset({6})


@pytest.fixture
def spec():
    return broadcast_weak_consensus_spec(N, T)


def isolated(spec, group, k, bit=0):
    return spec.run_uniform(bit, isolate_group(group, k))


def merge_spec(k_b, k_c):
    return MergeSpec(
        group_b=GROUP_B, group_c=GROUP_C, round_b=k_b, round_c=k_c
    )


class TestMergeSpec:
    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError, match="disjoint"):
            MergeSpec(
                group_b=frozenset({1}),
                group_c=frozenset({1}),
                round_b=1,
                round_c=1,
            )

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError, match="non-empty"):
            MergeSpec(
                group_b=frozenset(),
                group_c=frozenset({1}),
                round_b=1,
                round_c=1,
            )

    def test_group_a_is_complement(self):
        assert merge_spec(1, 1).group_a(N) == frozenset(range(5))


class TestMergeability:
    def test_round_one_pair_always_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        check_merge_inputs(merge_spec(1, 1), exec_b, exec_c)

    def test_adjacent_rounds_same_bit_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 3, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        check_merge_inputs(merge_spec(3, 2), exec_b, exec_c)

    def test_adjacent_rounds_different_bits_not_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 3, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=1)
        with pytest.raises(ModelViolation):
            check_merge_inputs(merge_spec(3, 2), exec_b, exec_c)

    def test_distant_rounds_not_mergeable(self, spec):
        exec_b = isolated(spec, GROUP_B, 4, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        with pytest.raises(ModelViolation):
            check_merge_inputs(merge_spec(4, 2), exec_b, exec_c)

    def test_isolation_round_must_match_claim(self, spec):
        exec_b = isolated(spec, GROUP_B, 2, bit=0)
        exec_c = isolated(spec, GROUP_C, 2, bit=0)
        with pytest.raises(ModelViolation):
            check_merge_inputs(merge_spec(1, 2), exec_b, exec_c)

    def test_uniform_proposal_required(self, spec):
        mixed = spec.run(
            [0, 0, 0, 1, 1, 0, 0], isolate_group(GROUP_B, 1)
        )
        with pytest.raises(ModelViolation, match="uniform"):
            uniform_proposal(mixed)


class TestLemma16Conclusions:
    def test_merge_round_one(self, spec):
        """The E_0^{B(1)} + E_1^{C(1)} splice of Lemma 3's base case."""
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        # check=True already ran the Lemma 16 verifier; spot-check the
        # conclusions independently.
        assert merged.faulty == GROUP_B | GROUP_C
        check_isolated(merged, GROUP_B, 1)
        check_isolated(merged, GROUP_C, 1)
        for pid in GROUP_B:
            assert behaviors_indistinguishable(
                merged.behavior(pid), exec_b.behavior(pid)
            )
        for pid in GROUP_C:
            assert behaviors_indistinguishable(
                merged.behavior(pid), exec_c.behavior(pid)
            )

    def test_merged_proposals_come_from_both_sides(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        proposals = merged.proposals()
        assert all(proposals[pid] == 0 for pid in range(5))
        assert proposals[5] == 0  # B side proposes with exec_b
        assert proposals[6] == 1  # C side proposes with exec_c

    def test_replayed_groups_keep_their_decisions(self, spec):
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        merged = merge(merge_spec(1, 1), exec_b, exec_c, spec.factory)
        for pid in GROUP_B:
            assert merged.decision(pid) == exec_b.decision(pid)
        for pid in GROUP_C:
            assert merged.decision(pid) == exec_c.decision(pid)

    @settings(max_examples=12, deadline=None)
    @given(
        k_b=st.integers(1, 5),
        delta=st.sampled_from([-1, 0, 1]),
    )
    def test_lemma16_across_adjacent_rounds(self, k_b, delta):
        """Property: every Definition-2 pair merges into a valid
        execution with both isolations and both indistinguishabilities.

        (`merge` with check=True machine-verifies all of Lemma 16; the
        test also cross-checks with phase king, a chattier protocol.)"""
        k_c = k_b + delta
        if k_c < 1:
            k_c = 1
        spec = phase_king_spec(9, 2)
        group_b, group_c = frozenset({7}), frozenset({8})
        exec_b = spec.run_uniform(0, isolate_group(group_b, k_b))
        exec_c = spec.run_uniform(0, isolate_group(group_c, k_c))
        merged = merge(
            MergeSpec(
                group_b=group_b,
                group_c=group_c,
                round_b=k_b,
                round_c=k_c,
            ),
            exec_b,
            exec_c,
            spec.factory,
        )
        assert merged.faulty == group_b | group_c


class TestPaperRegimeGroups:
    def test_merge_with_quarter_sized_groups(self):
        """The paper's |B| = |C| = t/4 sizing at t = 16: groups of 4."""
        from repro.lowerbound.partition import paper_partition

        n, t = 24, 16
        spec = broadcast_weak_consensus_spec(n, t)
        partition = paper_partition(n, t)
        exec_b = spec.run_uniform(
            0, isolate_group(partition.group_b, 3)
        )
        exec_c = spec.run_uniform(
            0, isolate_group(partition.group_c, 2)
        )
        merged = merge(
            MergeSpec(
                group_b=partition.group_b,
                group_c=partition.group_c,
                round_b=3,
                round_c=2,
            ),
            exec_b,
            exec_c,
            spec.factory,
        )
        assert (
            merged.faulty == partition.group_b | partition.group_c
        )
        assert len(merged.faulty) == t // 2


class TestStrictReplay:
    def test_wrong_factory_detected(self, spec):
        """Merging executions of algorithm X with algorithm Y's factory
        trips the determinism cross-check."""
        exec_b = isolated(spec, GROUP_B, 1, bit=0)
        exec_c = isolated(spec, GROUP_C, 1, bit=1)
        other = phase_king_spec(N, T // 2)
        with pytest.raises(ModelViolation):
            merge(
                merge_spec(1, 1), exec_b, exec_c, other.factory
            )
