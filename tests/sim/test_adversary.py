"""Tests for repro.sim.adversary."""

import pytest

from byzantine_strategies import mute
from repro.errors import AdversaryError
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import (
    Adversary,
    ByzantineAdversary,
    CrashAdversary,
    NoFaults,
    OmissionSchedule,
    ScheduledOmissionAdversary,
    SilenceAdversary,
    compose_omissions,
)
from repro.sim.message import Message


class TestBaseAdversary:
    def test_no_faults_is_empty(self):
        assert NoFaults().corrupted == frozenset()

    def test_budget_validation(self):
        adversary = Adversary({0, 1, 2})
        with pytest.raises(AdversaryError, match="corrupts 3"):
            adversary.validate_budget(5, 2)
        adversary.validate_budget(5, 3)

    def test_budget_validation_range(self):
        with pytest.raises(AdversaryError, match="outside range"):
            Adversary({7}).validate_budget(5, 3)

    def test_default_never_interferes(self):
        adversary = Adversary({0})
        message = Message(0, 1, 1)
        assert not adversary.send_omits(message)
        assert not adversary.receive_omits(message)
        assert (
            adversary.corrupt_machine(0, lambda p, v: None, 0) is None
        )


class TestCrashAdversary:
    def test_drops_everything_from_crash_round(self):
        adversary = CrashAdversary({1: 3})
        assert not adversary.send_omits(Message(1, 0, 2))
        assert adversary.send_omits(Message(1, 0, 3))
        assert adversary.receive_omits(Message(0, 1, 5))
        assert not adversary.receive_omits(Message(0, 1, 1))

    def test_other_processes_unaffected(self):
        adversary = CrashAdversary({1: 1})
        assert not adversary.send_omits(Message(2, 0, 5))

    def test_crashed_process_stops_participating(self):
        spec = broadcast_weak_consensus_spec(5, 2)
        execution = spec.run_uniform(0, CrashAdversary({2: 1}))
        assert execution.behavior(2).all_sent() == frozenset()
        # The protocol survives: all correct decide 0.
        assert set(execution.correct_decisions().values()) == {0}


class TestSilenceAdversary:
    def test_mutes_corrupted_sends_only(self):
        adversary = SilenceAdversary({3})
        assert adversary.send_omits(Message(3, 0, 1))
        assert not adversary.send_omits(Message(0, 3, 1))
        assert not adversary.receive_omits(Message(0, 3, 1))


class TestScheduledOmission:
    def test_schedule_is_honored(self):
        schedule = OmissionSchedule(
            send_drops=lambda m: m.receiver == 0,
            receive_drops=lambda m: m.round >= 2,
        )
        adversary = ScheduledOmissionAdversary({1}, schedule)
        assert adversary.send_omits(Message(1, 0, 1))
        assert not adversary.send_omits(Message(1, 2, 1))
        assert adversary.receive_omits(Message(0, 1, 2))


class TestByzantineAdversary:
    def test_strategy_substitutes_machine(self):
        adversary = ByzantineAdversary({1}, {1: mute()})
        spec = broadcast_weak_consensus_spec(4, 1)
        machine = adversary.corrupt_machine(1, spec.factory, 0)
        assert machine is not None
        assert machine.outgoing(1) == {}

    def test_corrupted_without_strategy_stays_honest(self):
        adversary = ByzantineAdversary({1})
        spec = broadcast_weak_consensus_spec(4, 1)
        assert adversary.corrupt_machine(1, spec.factory, 0) is None

    def test_rejects_strategy_for_uncorrupted(self):
        with pytest.raises(AdversaryError, match="non-corrupted"):
            ByzantineAdversary({1}, {2: mute()})


class TestComposition:
    def test_composed_drops_if_any_component_drops(self):
        early = CrashAdversary({0: 1})
        late = CrashAdversary({1: 3})
        combined = compose_omissions({0, 1}, early, late)
        assert combined.send_omits(Message(0, 2, 1))
        assert combined.send_omits(Message(1, 2, 4))
        assert not combined.send_omits(Message(1, 2, 1))
