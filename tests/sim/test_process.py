"""Tests for repro.sim.process: determinism, replay, write-once decisions."""

import pytest

from repro.errors import ModelViolation, ProtocolViolation
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import CrashAdversary
from repro.sim.process import Process, drive_replay


class Echo(Process):
    """Minimal machine: broadcast the proposal once, decide it."""

    def outgoing(self, round_):
        if round_ == 1:
            return {
                pid: self.proposal
                for pid in range(self.n)
                if pid != self.pid
            }
        return {}

    def deliver(self, round_, received):
        if round_ == 1:
            self.decide(self.proposal)


class TestProcessBasics:
    def test_decide_is_write_once(self):
        machine = Echo(0, 3, 1, proposal=7)
        machine.decide(7)
        machine.decide(7)  # same value: no-op
        with pytest.raises(ProtocolViolation, match="changed decision"):
            machine.decide(8)

    def test_decide_none_rejected(self):
        machine = Echo(0, 3, 1, proposal=7)
        with pytest.raises(ProtocolViolation, match="None"):
            machine.decide(None)

    def test_snapshot_reflects_state(self):
        machine = Echo(2, 3, 1, proposal="v")
        snap = machine.snapshot(4)
        assert (snap.process, snap.round, snap.proposal) == (2, 4, "v")

    def test_validate_outgoing_rejects_self_message(self):
        machine = Echo(0, 3, 1, proposal=7)
        with pytest.raises(ProtocolViolation, match="self-message"):
            machine.validate_outgoing(1, {0: "x"})

    def test_validate_outgoing_rejects_unknown_receiver(self):
        machine = Echo(0, 3, 1, proposal=7)
        with pytest.raises(ValueError):
            machine.validate_outgoing(1, {9: "x"})


class TestDriveReplay:
    def test_replay_accepts_genuine_behavior(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([0, 1, 0, 1])
        for pid in range(4):
            machine = spec.factory(pid, execution.behavior(pid).proposal)
            drive_replay(machine, execution.behavior(pid))

    def test_replay_accepts_faulty_omission_behavior(self):
        """Omission-faulty processes still follow the state machine (§3)."""
        spec = broadcast_weak_consensus_spec(4, 2)
        execution = spec.run_uniform(0, CrashAdversary({1: 2}))
        machine = spec.factory(1, 0)
        drive_replay(machine, execution.behavior(1))

    def test_replay_rejects_wrong_proposal(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([0, 1, 0, 1])
        machine = spec.factory(0, 1)  # recorded proposal was 0
        with pytest.raises(ModelViolation, match="proposal"):
            drive_replay(machine, execution.behavior(0))

    def test_replay_rejects_wrong_machine(self):
        spec = phase_king_spec(4, 1)
        other = broadcast_weak_consensus_spec(4, 1)
        execution = spec.run([0, 1, 0, 1])
        machine = other.factory(0, 0)
        with pytest.raises(ModelViolation):
            drive_replay(machine, execution.behavior(0))

    def test_replay_rejects_pid_mismatch(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([0, 1, 0, 1])
        machine = spec.factory(1, 1)
        with pytest.raises(ModelViolation, match="machine p1"):
            drive_replay(machine, execution.behavior(0))

