"""Tests for repro.sim.simulator: the round loop and trace recording."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolViolation
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import OmissionSchedule, ScheduledOmissionAdversary
from repro.sim.execution import check_execution, check_transitions
from repro.sim.process import Process
from repro.sim.simulator import (
    SimulationConfig,
    build_machines,
    run_execution,
)


class TestConfig:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="at least one round"):
            SimulationConfig(n=3, t=1, rounds=0)

    def test_rejects_bad_system(self):
        with pytest.raises(ValueError):
            SimulationConfig(n=3, t=3, rounds=1)


class TestBuildMachines:
    def test_proposal_count_must_match(self):
        spec = phase_king_spec(4, 1)
        config = SimulationConfig(n=4, t=1, rounds=6)
        from repro.sim.adversary import NoFaults

        with pytest.raises(ValueError, match="expected 4 proposals"):
            build_machines(config, [0, 1], spec.factory, NoFaults())

    def test_misbehaving_factory_detected(self):
        config = SimulationConfig(n=3, t=1, rounds=1)
        spec = phase_king_spec(4, 1)

        def bad_factory(pid, proposal):
            return spec.factory((pid + 1) % 3, proposal)

        from repro.sim.adversary import NoFaults

        with pytest.raises(ProtocolViolation, match="wanted p0"):
            build_machines(config, [0, 0, 0], bad_factory, NoFaults())


class TestRoundLoop:
    def test_fault_free_run_decides(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([1, 0, 1, 1])
        assert None not in execution.correct_decisions().values()
        assert set(execution.correct_decisions().values()) == {1}

    def test_traces_are_model_valid(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run([1, 0, 1, 1])
        check_execution(execution)
        check_transitions(execution, spec.factory)

    def test_uniform_helper(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run_uniform(1)
        assert execution.proposals() == {pid: 1 for pid in range(4)}

    def test_horizon_is_respected(self):
        spec = phase_king_spec(4, 1)
        execution = spec.run_uniform(0, rounds=2)
        assert execution.rounds == 2


class _DoubleSender(Process):
    """Pathological machine: targets itself (illegal)."""

    def outgoing(self, round_):
        return {self.pid: "self"}

    def deliver(self, round_, received):
        return None


class TestProtocolPolicing:
    def test_self_message_raises(self):
        config = SimulationConfig(n=3, t=0, rounds=1)
        with pytest.raises(ProtocolViolation, match="self-message"):
            run_execution(
                config,
                [0, 0, 0],
                lambda pid, proposal: _DoubleSender(
                    pid, 3, 0, proposal
                ),
            )


@st.composite
def omission_schedules(draw):
    """Random per-slot omission patterns for a (5, 2) system, 4 rounds."""
    corrupted = draw(
        st.sets(st.integers(0, 4), min_size=1, max_size=2)
    )
    send_slots = draw(
        st.sets(
            st.tuples(
                st.sampled_from(sorted(corrupted)),
                st.integers(0, 4),
                st.integers(1, 4),
            ),
            max_size=10,
        )
    )
    receive_slots = draw(
        st.sets(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(sorted(corrupted)),
                st.integers(1, 4),
            ),
            max_size=10,
        )
    )
    return corrupted, send_slots, receive_slots


class TestRandomOmissions:
    @settings(max_examples=40, deadline=None)
    @given(omission_schedules())
    def test_any_omission_schedule_yields_valid_traces(self, data):
        """Property: arbitrary omission patterns still produce executions
        satisfying every A.1.6 condition, and replays match (A.1.5 #7)."""
        corrupted, send_slots, receive_slots = data
        spec = broadcast_weak_consensus_spec(5, 2)
        adversary = ScheduledOmissionAdversary(
            corrupted,
            OmissionSchedule(
                send_drops=lambda m: (
                    (m.sender, m.receiver, m.round) in send_slots
                ),
                receive_drops=lambda m: (
                    (m.sender, m.receiver, m.round) in receive_slots
                ),
            ),
        )
        execution = spec.run_uniform(0, adversary)
        check_execution(execution)
        check_transitions(execution, spec.factory)
        # Weak consensus under omissions: correct processes always agree.
        decisions = {
            execution.decision(pid) for pid in execution.correct
        }
        assert len(decisions) == 1
        assert None not in decisions
