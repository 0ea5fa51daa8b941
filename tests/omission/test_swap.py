"""Tests for repro.omission.swap (Algorithm 4 / Lemma 15)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.omission.indistinguishability import indistinguishable_to_all
from repro.omission.isolation import isolate_group
from repro.omission.swap import swap_omission, swap_omission_checked
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
)
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.execution import check_execution


def isolated_leader_echo(n=8, t=4, k=1, group=None):
    spec = leader_echo_spec(n, t)
    group = frozenset(group or {n - 1})
    return spec, group, spec.run_uniform(0, isolate_group(group, k))


class TestSwapMechanics:
    def test_focal_process_becomes_correct(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        swapped = swap_omission(execution, pid)
        assert pid not in swapped.faulty

    def test_blame_moves_to_senders(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        # the paper's set S: senders of the messages pid receive-omits
        senders = {
            message.sender
            for message in execution.behavior(pid).all_receive_omitted()
        }
        assert senders == {0}  # only the leader's verdict was dropped
        swapped = swap_omission(execution, pid)
        assert senders <= swapped.faulty

    def test_messages_move_to_send_omitted(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        dropped = execution.behavior(pid).all_receive_omitted()
        swapped = swap_omission(execution, pid)
        assert swapped.behavior(pid).all_receive_omitted() == frozenset()
        for message in dropped:
            sender_behavior = swapped.behavior(message.sender)
            assert message in sender_behavior.all_send_omitted()
            assert message not in sender_behavior.all_sent()

    def test_no_omissions_yields_empty_faulty(self):
        """Swapping a process that omitted nothing un-faults everyone who
        committed no faults (e.g. late isolation that never bit)."""
        spec = leader_echo_spec(6, 3)
        execution = spec.run_uniform(
            0, isolate_group({5}, 10)  # beyond the 2-round horizon
        )
        swapped = swap_omission(execution, 5)
        assert swapped.faulty == frozenset()


class TestLemma15Conclusions:
    def test_checked_swap_validates_everything(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        result = swap_omission_checked(
            execution, pid, witness_correct=1
        )
        check_execution(result.execution)
        assert indistinguishable_to_all(execution, result.execution)
        assert result.now_correct == pid
        assert result.newly_faulty == {0}

    def test_precondition_send_omissions_rejected(self):
        spec = leader_echo_spec(6, 3)
        execution = spec.run_uniform(0, CrashAdversary({5: 1}))
        with pytest.raises(ModelViolation, match="must not send-omit"):
            swap_omission_checked(execution, 5)

    def test_precondition_budget_rejected(self):
        """A chatty protocol blames too many senders: |F'| > t."""
        spec = broadcast_weak_consensus_spec(8, 2)
        execution = spec.run_uniform(0, isolate_group({7}, 1))
        with pytest.raises(ModelViolation, match="exceeds t"):
            swap_omission_checked(execution, 7)

    def test_witness_correct_preserved(self):
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        # p0 (the leader) is blamed; using it as a witness must fail.
        with pytest.raises(ModelViolation, match="became faulty"):
            swap_omission_checked(execution, pid, witness_correct=0)

    def test_decisions_preserved_by_swap(self):
        """Indistinguishability at work: every decision is unchanged."""
        _, group, execution = isolated_leader_echo()
        pid = next(iter(group))
        swapped = swap_omission(execution, pid)
        assert swapped.decisions() == execution.decisions()


class TestSwapProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 3),
        committee=st.integers(1, 2),
        member=st.integers(0, 1),
    )
    def test_lemma15_on_random_isolations(self, k, committee, member):
        """Property: for the sparse committee cheater, any isolated
        member can be swapped and all Lemma-15 conclusions hold."""
        n, t = 9, 4
        spec = committee_cheater_spec(n, t, committee_size=committee)
        group = frozenset({n - 2, n - 1})
        execution = spec.run_uniform(0, isolate_group(group, k))
        pid = sorted(group)[member]
        result = swap_omission_checked(execution, pid)
        assert pid not in result.execution.faulty
        assert indistinguishable_to_all(execution, result.execution)
