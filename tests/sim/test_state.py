"""Tests for repro.sim.state: the A.1 fragment/behavior formalism."""

import pytest

from repro.errors import ModelViolation
from repro.sim.message import Message
from repro.sim.state import (
    Behavior,
    Fragment,
    StateSnapshot,
    behaviors_indistinguishable,
    check_behavior,
    check_fragment,
)


def state(pid=0, round_=1, proposal=0, decision=None):
    return StateSnapshot(
        process=pid, round=round_, proposal=proposal, decision=decision
    )


def fragment(pid=0, round_=1, **kwargs):
    return Fragment(state=state(pid, round_), **kwargs)


class TestStateSnapshot:
    def test_advanced_increments_round(self):
        s = state().advanced(None)
        assert s.round == 2

    def test_advanced_records_decision(self):
        s = state().advanced(1)
        assert s.decision == 1
        assert s.decided

    def test_decision_is_write_once(self):
        s = state(decision=0)
        with pytest.raises(ModelViolation, match="changed decision"):
            s.advanced(1)

    def test_redeciding_same_value_is_fine(self):
        assert state(decision=0).advanced(0).decision == 0

    def test_decision_survives_none(self):
        assert state(decision=1).advanced(None).decision == 1


class TestFragmentConditions:
    """One test per A.1.4 condition the checker enforces."""

    def test_valid_fragment_passes(self):
        check_fragment(
            fragment(
                sent=frozenset({Message(0, 1, 1, "x")}),
                received=frozenset({Message(2, 0, 1, "y")}),
            )
        )

    def test_condition3_wrong_round(self):
        bad = fragment(sent=frozenset({Message(0, 1, 2)}))
        with pytest.raises(ModelViolation, match="round"):
            check_fragment(bad)

    def test_condition3_receive_omitted_only(self):
        bad = fragment(receive_omitted=frozenset({Message(1, 0, 2)}))
        with pytest.raises(ModelViolation, match="round"):
            check_fragment(bad)

    def test_condition3_send_omitted_only(self):
        bad = fragment(send_omitted=frozenset({Message(0, 1, 2)}))
        with pytest.raises(ModelViolation, match="round"):
            check_fragment(bad)

    def test_fragment_without_messages_passes(self):
        check_fragment(fragment(pid=3, round_=7))

    def test_condition4_sent_and_send_omitted_overlap(self):
        message = Message(0, 1, 1)
        bad = fragment(
            sent=frozenset({message}), send_omitted=frozenset({message})
        )
        with pytest.raises(ModelViolation, match="overlap"):
            check_fragment(bad)

    def test_condition5_received_and_receive_omitted_overlap(self):
        message = Message(1, 0, 1)
        bad = fragment(
            received=frozenset({message}),
            receive_omitted=frozenset({message}),
        )
        with pytest.raises(ModelViolation, match="overlap"):
            check_fragment(bad)

    def test_condition6_outgoing_sender_mismatch(self):
        bad = fragment(sent=frozenset({Message(1, 2, 1)}))
        with pytest.raises(ModelViolation, match="sender"):
            check_fragment(bad)

    def test_condition7_incoming_receiver_mismatch(self):
        bad = fragment(received=frozenset({Message(1, 2, 1)}))
        with pytest.raises(ModelViolation, match="receiver"):
            check_fragment(bad)

    def test_condition9_two_outgoing_to_one_receiver(self):
        bad = fragment(
            sent=frozenset({Message(0, 1, 1, "a")}),
            send_omitted=frozenset({Message(0, 1, 1, "b")}),
        )
        with pytest.raises(ModelViolation, match="one receiver"):
            check_fragment(bad)

    def test_condition10_two_incoming_from_one_sender(self):
        bad = fragment(
            received=frozenset({Message(1, 0, 1, "a")}),
            receive_omitted=frozenset({Message(1, 0, 1, "b")}),
        )
        with pytest.raises(ModelViolation, match="one sender"):
            check_fragment(bad)

    def test_all_outgoing_and_incoming(self):
        sent = Message(0, 1, 1, "s")
        omitted = Message(0, 2, 1, "o")
        received = Message(3, 0, 1, "r")
        frag = fragment(
            sent=frozenset({sent}),
            send_omitted=frozenset({omitted}),
            received=frozenset({received}),
        )
        assert frag.all_outgoing == {sent, omitted}
        assert frag.all_incoming == {received}
        assert frag.commits_fault


def simple_behavior(pid=0, rounds=3, proposal=0, decision_round=None):
    """A no-message behavior, optionally deciding `proposal` at a round."""
    fragments = []
    decision = None
    for round_ in range(1, rounds + 1):
        fragments.append(
            Fragment(state=state(pid, round_, proposal, decision))
        )
        if decision_round is not None and round_ == decision_round:
            decision = proposal
    final = state(pid, rounds + 1, proposal, decision)
    return Behavior(tuple(fragments), final_state=final)


class TestBehavior:
    def test_accessors(self):
        behavior = simple_behavior(pid=2, rounds=4, proposal=1)
        assert behavior.process == 2
        assert behavior.rounds == 4
        assert behavior.proposal == 1
        assert behavior.decision is None

    def test_decision_read_from_final_state(self):
        behavior = simple_behavior(rounds=3, decision_round=3)
        assert behavior.decision == 0
        assert behavior.decision_round == 3

    def test_decision_round_mid_behavior(self):
        behavior = simple_behavior(rounds=5, decision_round=2)
        assert behavior.decision_round == 2

    def test_prefix_shortens(self):
        behavior = simple_behavior(rounds=5, decision_round=2)
        prefix = behavior.prefix(3)
        assert prefix.rounds == 3
        assert prefix.decision == 0  # decided during round 2

    def test_prefix_full_length_is_identity(self):
        behavior = simple_behavior(rounds=3)
        assert behavior.prefix(3) is behavior

    def test_prefix_out_of_range(self):
        with pytest.raises(IndexError):
            simple_behavior(rounds=3).prefix(4)

    def test_check_behavior_accepts_valid(self):
        check_behavior(simple_behavior())

    def test_check_behavior_rejects_decided_start(self):
        bad = Behavior(
            (Fragment(state=state(decision=1)),),
            final_state=state(round_=2, decision=1),
        )
        with pytest.raises(ModelViolation, match="already decided"):
            check_behavior(bad)

    def test_check_behavior_rejects_proposal_change(self):
        fragments = (
            Fragment(state=state(proposal=0)),
            Fragment(state=state(round_=2, proposal=1)),
        )
        bad = Behavior(
            fragments, final_state=state(round_=3, proposal=1)
        )
        with pytest.raises(ModelViolation, match="proposal changed"):
            check_behavior(bad)

    def test_check_behavior_rejects_decision_change(self):
        fragments = (
            Fragment(state=state()),
            Fragment(state=state(round_=2, decision=0)),
            Fragment(state=state(round_=3, decision=1)),
        )
        bad = Behavior(
            fragments, final_state=state(round_=4, decision=1)
        )
        with pytest.raises(ModelViolation, match="decision changed"):
            check_behavior(bad)

    def test_check_behavior_rejects_bad_final_round(self):
        bad = Behavior(
            (Fragment(state=state()),),
            final_state=state(round_=5),
        )
        with pytest.raises(ModelViolation, match="final state"):
            check_behavior(bad)


class TestIndistinguishability:
    def test_same_receipts_same_proposal(self):
        left = simple_behavior()
        right = simple_behavior()
        assert behaviors_indistinguishable(left, right)

    def test_different_proposal_distinguishes(self):
        assert not behaviors_indistinguishable(
            simple_behavior(proposal=0), simple_behavior(proposal=1)
        )

    def test_omissions_do_not_distinguish(self):
        """A process is unaware of its own receive-omissions (§3)."""
        message = Message(1, 0, 1)
        with_omission = Behavior(
            (
                Fragment(
                    state=state(),
                    receive_omitted=frozenset({message}),
                ),
            ),
            final_state=state(round_=2),
        )
        without = Behavior(
            (Fragment(state=state()),), final_state=state(round_=2)
        )
        assert behaviors_indistinguishable(with_omission, without)

    def test_different_receipt_distinguishes(self):
        message = Message(1, 0, 1)
        received = Behavior(
            (Fragment(state=state(), received=frozenset({message})),),
            final_state=state(round_=2),
        )
        silent = Behavior(
            (Fragment(state=state()),), final_state=state(round_=2)
        )
        assert not behaviors_indistinguishable(received, silent)

    def test_different_process_distinguishes(self):
        assert not behaviors_indistinguishable(
            simple_behavior(pid=0), simple_behavior(pid=1)
        )
