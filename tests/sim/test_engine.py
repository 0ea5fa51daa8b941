"""The event-driven round engine and its observers.

The heart of the suite is the golden-equivalence matrix: six executions
recorded by the pre-engine monolithic recorder (no-fault, scheduled
omission, isolation, crash, Byzantine substitution, garbage payloads)
are stored as JSON fixtures in ``tests/sim/golden/`` and must reproduce
``==``-equal through the engine's :class:`TraceRecorder` path.
"""

import json
import pathlib

import pytest

from byzantine_strategies import crash_at, garbage, mute
from repro.errors import ModelViolation
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import (
    ByzantineAdversary,
    CrashAdversary,
    NoFaults,
    OmissionSchedule,
    ScheduledOmissionAdversary,
)
from repro.sim.engine import (
    EarlyStopPolicy,
    IncrementalChecker,
    RoundEngine,
    RoundObserver,
    TraceRecorder,
)
from repro.sim.kernel import (
    PrefixForker,
    fork_kernel,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.process import Process
from repro.sim.serialization import execution_from_dict
from repro.sim.simulator import (
    SimulationConfig,
    build_machines,
    run_execution,
)
from repro.sim.state import Fragment

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SEND_SLOTS = {(1, 0, 1), (1, 3, 2), (2, 4, 3)}
RECEIVE_SLOTS = {(0, 1, 2), (3, 2, 1), (4, 2, 4)}


def _omission_adversary():
    return ScheduledOmissionAdversary(
        {1, 2},
        OmissionSchedule(
            send_drops=lambda m: (m.sender, m.receiver, m.round)
            in SEND_SLOTS,
            receive_drops=lambda m: (m.sender, m.receiver, m.round)
            in RECEIVE_SLOTS,
        ),
    )


# Exactly the recipes that generated the fixtures with the pre-engine
# recorder; the engine must reproduce every trace bit for bit.
GOLDEN_SCENARIOS = {
    "phase_king_no_fault": lambda: phase_king_spec(4, 1).run(
        [1, 0, 1, 1]
    ),
    "weak_consensus_omission": lambda: broadcast_weak_consensus_spec(
        5, 2
    ).run_uniform(0, _omission_adversary()),
    "weak_consensus_isolation": lambda: broadcast_weak_consensus_spec(
        8, 4
    ).run_uniform(1, isolate_group({1, 2}, 2)),
    "phase_king_crash": lambda: phase_king_spec(5, 1).run_uniform(
        1, CrashAdversary({2: 2})
    ),
    "phase_king_byzantine": lambda: phase_king_spec(7, 2).run(
        [1, 0, 1, 1, 0, 1, 1],
        ByzantineAdversary({1, 3}, {1: mute(), 3: crash_at(2)}),
    ),
    "weak_consensus_garbage_byz": lambda: broadcast_weak_consensus_spec(
        5, 1
    ).run_uniform(0, ByzantineAdversary({2}, {2: garbage()})),
}


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_trace_recorder_matches_pre_engine_trace(self, name):
        golden = execution_from_dict(
            json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        )
        assert GOLDEN_SCENARIOS[name]() == golden

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_fixture_is_valid_json(self, name):
        json.loads((GOLDEN_DIR / f"{name}.json").read_text())


class _RoundProbe(RoundObserver):
    """Records the lifecycle calls an observer receives."""

    def __init__(self):
        self.started = False
        self.rounds = []
        self.ended = False
        self.final_corrupted = None

    def on_run_start(self, config, machines, adversary):
        self.started = True

    def on_round(self, event):
        self.rounds.append(event.round)

    def on_run_end(self, final_states, corrupted):
        self.ended = True
        self.final_corrupted = corrupted


def _engine(spec, proposal, adversary, observers, rounds=None):
    config = SimulationConfig(
        n=spec.n, t=spec.t, rounds=rounds or spec.rounds
    )
    machines = build_machines(
        config, [proposal] * spec.n, spec.factory, adversary
    )
    return RoundEngine(config, machines, adversary, observers)


class TestEngineEvents:
    def test_observers_see_every_round_in_order(self):
        spec = phase_king_spec(4, 1)
        probe = _RoundProbe()
        engine = _engine(spec, 1, NoFaults(), [probe])
        engine.run()
        assert probe.started and probe.ended
        assert probe.rounds == list(range(1, spec.rounds + 1))
        assert engine.rounds_run == spec.rounds
        assert not engine.stopped_early

    def test_event_carries_flat_sent_set_and_decisions(self):
        spec = broadcast_weak_consensus_spec(5, 1)

        class _Collector(RoundObserver):
            events = []

            def on_round(self, event):
                self.events.append(event)

        collector = _Collector()
        collector.events = []
        engine = _engine(spec, 1, NoFaults(), [collector])
        engine.run()
        first = collector.events[0]
        # Round 1 of the broadcast protocol: p0 broadcasts its proposal.
        assert len(first.all_sent) == spec.n - 1
        assert {message.sender for message in first.all_sent} == {0}
        assert first.all_sent == frozenset().union(
            *(fragment.sent for fragment in first.fragments)
        )
        last = collector.events[-1]
        assert all(
            decision is not None for decision in last.decisions
        )


class _ProposalMutator(Process):
    """An invalid machine that silently rewrites its proposal mid-run."""

    def __init__(self, inner):
        super().__init__(inner.pid, inner.n, inner.t, inner.proposal)
        self._inner = inner

    def outgoing(self, round_):
        return self._inner.outgoing(round_)

    def deliver(self, round_, received):
        self._inner.deliver(round_, received)
        if round_ == 2:
            self.proposal = 1 - self.proposal


class TestIncrementalChecker:
    def test_clean_runs_pass(self):
        spec = phase_king_spec(4, 1)
        probe = _RoundProbe()
        engine = _engine(
            spec, 0, NoFaults(), [IncrementalChecker(), probe]
        )
        engine.run()
        assert probe.rounds == list(range(1, spec.rounds + 1))

    def test_fails_fast_at_the_offending_round(self):
        """A proposal mutation at round 2 must abort at round 2, not
        after the horizon — the whole point of incremental checking."""
        spec = broadcast_weak_consensus_spec(4, 1)
        config = SimulationConfig(n=4, t=1, rounds=spec.rounds + 4)
        machines = [
            _ProposalMutator(spec.factory(pid, 0)) if pid == 2
            else spec.factory(pid, 0)
            for pid in range(4)
        ]
        probe = _RoundProbe()
        engine = RoundEngine(
            config,
            machines,
            NoFaults(),
            [probe, IncrementalChecker()],
        )
        with pytest.raises(ModelViolation, match="proposal changed"):
            engine.run()
        assert max(probe.rounds) == 3  # first snapshot showing round-2 edit

    def test_flags_uncorrupted_omissions(self):
        """Omissions by a process outside the corruption set violate
        omission-validity; the checker sees them via the event sets."""
        spec = broadcast_weak_consensus_spec(4, 1)
        # The engine itself never produces omissions for uncorrupted
        # processes, so feed the checker a hand-built event directly.
        checker = IncrementalChecker()
        execution = spec.run_uniform(1)
        checker._t = spec.t
        checker._proposals = [1] * 4
        checker._decisions = [None] * 4
        # In round 2 every process hears the round-1 broadcast; recast
        # p1's received messages as receive-omissions while the event
        # claims nobody is corrupted.
        fragment = execution.behavior(1).fragment(2)
        assert fragment.received, "round 2 must carry inbound messages"
        bad = Fragment(
            state=fragment.state,
            sent=fragment.sent,
            send_omitted=frozenset(),
            received=frozenset(),
            receive_omitted=fragment.received,
        )
        from repro.sim.engine import RoundEvent

        fragments = [
            execution.behavior(pid).fragment(2) for pid in range(4)
        ]
        fragments[1] = bad
        event = RoundEvent(
            round=2,
            corrupted=frozenset(),
            fragments=tuple(fragments),
            all_sent=frozenset().union(*(f.sent for f in fragments)),
            decisions=(None,) * 4,
        )
        with pytest.raises(ModelViolation, match="omission-validity"):
            checker.on_round(event)


class TestEarlyStopPolicy:
    def test_stops_at_decision_round_under_padded_horizon(self):
        spec = phase_king_spec(4, 1)
        stopper = EarlyStopPolicy()
        probe = _RoundProbe()
        engine = _engine(
            spec, 1, NoFaults(), [stopper, probe],
            rounds=spec.rounds + 5,
        )
        engine.run()
        assert stopper.stopped_at == spec.rounds
        assert engine.stopped_early
        assert probe.rounds[-1] == spec.rounds

    def test_scope_all_waits_for_faulty_processes(self):
        """Isolated group members may decide later than the correct
        majority; scope='all' must keep running until they do."""
        spec = broadcast_weak_consensus_spec(6, 2)
        adversary = isolate_group({4, 5}, 1)
        correct_only = spec.run_uniform(
            1, isolate_group({4, 5}, 1),
            rounds=spec.rounds + 3, early_stop=True,
        )
        config = SimulationConfig(n=6, t=2, rounds=spec.rounds + 3)
        machines = build_machines(
            config, [1] * 6, spec.factory, adversary
        )
        recorder = TraceRecorder()
        stopper = EarlyStopPolicy(scope="all")
        RoundEngine(
            config, machines, adversary, [recorder, stopper]
        ).run()
        everyone = recorder.execution()
        assert everyone.rounds >= correct_only.rounds
        for pid in range(6):
            assert everyone.decision(pid) is not None

    def test_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            EarlyStopPolicy(scope="most")

    def test_truncated_execution_is_a_prefix_with_same_decisions(self):
        spec = phase_king_spec(5, 1)
        pad = spec.rounds + 4
        full = spec.run_uniform(0, rounds=pad)
        stopped = spec.run_uniform(0, rounds=pad, early_stop=True)
        assert stopped.rounds < pad
        assert stopped == full.prefix(stopped.rounds)
        for pid in range(spec.n):
            assert stopped.decision(pid) == full.decision(pid)


class TestCheckpointResume:
    """Checkpoint-resume is :class:`PrefixForker` plus
    :func:`fork_kernel`: machines forked off the recorded fault-free run
    resume under a new isolation and must record what a from-scratch
    object-engine run records."""

    def _forker(self, spec, bit):
        config = SimulationConfig(n=spec.n, t=spec.t, rounds=spec.rounds)
        proposals = [bit] * spec.n
        base = run_kernel(
            config, proposals, spec.factory, no_faults_compiled(spec.n)
        )
        return config, base, PrefixForker(
            config, proposals, spec.factory, base
        )

    @pytest.mark.parametrize("resume_at", [2, 3, 5])
    def test_resumed_isolation_equals_fresh_simulation(self, resume_at):
        """The driver's execution-reuse backbone: checkpoint the
        fault-free run, resume under isolation, and the stitched trace
        must equal the from-scratch isolated simulation exactly."""
        spec = phase_king_spec(6, 1)
        adversary = isolate_group(frozenset({5}), resume_at)
        config, base, forker = self._forker(spec, 1)
        machines, replayed = forker.machines_at(resume_at)
        assert replayed == resume_at - 1
        resumed = fork_kernel(
            config,
            machines,
            compile_omissions(adversary, spec.n),
            base,
            resume_at,
        )
        fresh = spec.run_uniform(1, adversary)
        assert resumed.to_execution() == fresh

    def test_checkpoints_are_independent_copies(self):
        spec = phase_king_spec(4, 1)
        _config, _base, forker = self._forker(spec, 0)
        first, _ = forker.machines_at(2)
        second, replayed = forker.machines_at(2)
        assert replayed == 0  # memoized: no second replay
        assert first is not second
        assert first[0] is not second[0]
        # The fault-free run decided at the horizon; the forks did not.
        assert first[0].decision is None

    def test_unregistered_checkpointer_copies_nothing(self):
        """Lazy checkpointing: no requested fork, no deep-copies."""
        spec = phase_king_spec(6, 1)
        _config, _base, forker = self._forker(spec, 1)
        assert forker.machines_copied == 0

    def test_only_registered_rounds_are_snapshotted(self):
        spec = phase_king_spec(6, 1)
        _config, _base, forker = self._forker(spec, 1)
        _machines, first = forker.machines_at(2)
        _machines, second = forker.machines_at(4)
        # Per requested round, one memoized snapshot and one handed-out
        # copy of six machines; rounds 1 and 3 are replayed, not copied.
        assert forker.machines_copied == 24
        assert first + second == 3


class TestSimulatorEntryPoints:
    def test_run_execution_unchanged_for_legacy_callers(self):
        spec = phase_king_spec(4, 1)
        config = SimulationConfig(n=4, t=1, rounds=spec.rounds)
        execution = run_execution(
            config, [1, 0, 1, 1], spec.factory
        )
        assert execution == spec.run([1, 0, 1, 1])

    def test_observers_kwarg_reaches_the_engine(self):
        spec = phase_king_spec(4, 1)
        probe = _RoundProbe()
        spec.run_uniform(1, observers=[probe])
        assert probe.rounds == list(range(1, spec.rounds + 1))
        assert probe.final_corrupted == frozenset()
