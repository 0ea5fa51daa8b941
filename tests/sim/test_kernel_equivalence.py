"""Differential tests: the bitmask kernel vs the object engine.

The kernel's correctness claim is *representational*: for every
kernel-compilable adversary the mask run must materialize an
:class:`Execution` record equal — fragment for fragment, message for
message — to what the object engine records, with matching §2 message
complexity.  Three enforcement arms:

* golden bit-identity — kernel traces equal the committed fixtures in
  ``tests/sim/golden/`` (the same fixtures the object engine is held
  to);
* the :class:`KernelOracle` observer — a shadow kernel stepping in
  lock-step with live engine rounds;
* Hypothesis differential runs — randomized thinned protocols under
  randomized isolation adversaries, executed in both engines.
"""

import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.experiments import CHEATERS
from repro.lowerbound.driver import ExecutionCache, attack_weak_consensus
from repro.lowerbound.partition import canonical_partition
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.omission.isolation import IsolationAdversary, isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.subquadratic import ring_token_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import (
    Adversary,
    ByzantineAdversary,
    NoFaults,
    OmissionSchedule,
    ScheduledOmissionAdversary,
)
from repro.sim.engine import EarlyStopPolicy, RoundObserver
from repro.sim.execution import check_execution
from repro.sim.kernel import (
    KernelOracle,
    PrefixForker,
    fork_kernel,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.process import Process
from repro.sim.serialization import execution_from_dict
from repro.sim.simulator import SimulationConfig, run_execution

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GATE_TOOL = (
    pathlib.Path(__file__).parents[2] / "tools" / "kernel_speedup_gate.py"
)


def _kernel_uniform(spec, bit, adversary=None, *, early_stop=None):
    compiled = compile_omissions(adversary, spec.n)
    assert compiled is not None
    config = SimulationConfig(
        n=spec.n, t=spec.t, rounds=spec.rounds, check=True
    )
    return run_kernel(
        config,
        [bit] * spec.n,
        spec.factory,
        compiled,
        early_stop=early_stop,
    )


class TestGoldenBitIdentity:
    """Kernel traces must equal the committed golden fixtures."""

    def test_phase_king_no_fault(self):
        spec = phase_king_spec(4, 1)
        config = SimulationConfig(
            n=4, t=1, rounds=spec.rounds, check=True
        )
        trace = run_kernel(
            config, [1, 0, 1, 1], spec.factory, no_faults_compiled(4)
        )
        golden = execution_from_dict(
            json.loads((GOLDEN_DIR / "phase_king_no_fault.json").read_text())
        )
        assert trace.to_execution() == golden

    def test_weak_consensus_isolation(self):
        spec = broadcast_weak_consensus_spec(8, 4)
        trace = _kernel_uniform(spec, 1, isolate_group({1, 2}, 2))
        golden = execution_from_dict(
            json.loads((GOLDEN_DIR / "weak_consensus_isolation.json").read_text())
        )
        assert trace.to_execution() == golden


class TestCompilation:
    def test_no_faults_compiles(self):
        compiled = compile_omissions(NoFaults(), 6)
        assert compiled is not None
        assert compiled.corrupted == frozenset()
        assert compiled.thresholds == (None,) * 6
        assert compiled.restricted == ((1 << 6) - 1,) * 6

    def test_none_means_no_faults(self):
        assert compile_omissions(None, 4) == compile_omissions(
            NoFaults(), 4
        )

    def test_isolation_compiles_per_group(self):
        adversary = IsolationAdversary({(1, 2): 3, (4,): 2})
        compiled = compile_omissions(adversary, 6)
        assert compiled is not None
        assert compiled.corrupted == frozenset({1, 2, 4})
        assert compiled.thresholds == (None, 3, 3, None, 2, None)
        assert compiled.restricted[1] == compiled.restricted[2] == 0b110
        assert compiled.restricted[4] == 0b10000
        assert compiled.restricted[0] == (1 << 6) - 1

    @pytest.mark.parametrize(
        "adversary",
        [
            ByzantineAdversary({1}, {}),
            ScheduledOmissionAdversary(
                {1}, OmissionSchedule(
                    send_drops=lambda m: True,
                    receive_drops=lambda m: False,
                )
            ),
        ],
        ids=["byzantine", "scheduled"],
    )
    def test_richer_adversaries_do_not_compile(self, adversary):
        assert compile_omissions(adversary, 4) is None

    def test_adversary_subclass_does_not_compile(self):
        # Nominal compilation: a subclass may override any hook.
        class Custom(Adversary):
            pass

        assert compile_omissions(Custom(), 4) is None


class TestEngineEquivalence:
    """Full executions equal in both engines, complexity included."""

    CASES = [
        ("phase_king_nofault", lambda: phase_king_spec(7, 2), 1, None),
        (
            "phase_king_isolated",
            lambda: phase_king_spec(7, 2),
            0,
            isolate_group({2, 3}, 2),
        ),
        (
            "ring_token_isolated",
            lambda: ring_token_spec(12, 8),
            1,
            isolate_group({8, 9}, 3),
        ),
        (
            "weak_consensus_round1",
            lambda: broadcast_weak_consensus_spec(8, 4),
            0,
            isolate_group({5, 6, 7}, 1),
        ),
    ]

    @pytest.mark.parametrize(
        "spec_fn,bit,adversary",
        [case[1:] for case in CASES],
        ids=[case[0] for case in CASES],
    )
    def test_execution_and_complexity_equal(self, spec_fn, bit, adversary):
        spec = spec_fn()
        reference = spec.run_uniform(bit, adversary)
        trace = _kernel_uniform(spec, bit, adversary)
        execution = trace.to_execution()
        assert execution == reference
        check_execution(execution)
        assert (
            trace.message_complexity() == reference.message_complexity()
        )

    def test_early_stop_equivalence(self):
        spec = phase_king_spec(7, 2)
        adversary = isolate_group({2, 3}, 2)
        reference = spec.run_uniform(
            1, adversary, observers=[EarlyStopPolicy(scope="all")]
        )
        trace = _kernel_uniform(spec, 1, adversary, early_stop="all")
        assert trace.rounds == reference.rounds
        assert trace.to_execution() == reference

    def test_limb_boundary_n65(self):
        # n=65 needs a second limb; nothing in the kernel may assume a
        # single machine word.
        spec = broadcast_weak_consensus_spec(65, 4)
        adversary = isolate_group({63, 64}, 1)
        reference = spec.run_uniform(1, adversary)
        trace = _kernel_uniform(spec, 1, adversary)
        assert trace.to_execution() == reference

    def test_fork_equals_fresh(self):
        spec = ring_token_spec(12, 8)
        config = SimulationConfig(
            n=12, t=8, rounds=spec.rounds, check=True
        )
        base = run_kernel(
            config, [0] * 12, spec.factory, no_faults_compiled(12)
        )
        forker = PrefixForker(config, [0] * 12, spec.factory, base)
        for from_round in (2, 4, 2):
            adversary = isolate_group({8, 9}, from_round)
            machines, _ = forker.machines_at(from_round)
            assert machines is not None
            forked = fork_kernel(
                config,
                machines,
                compile_omissions(adversary, 12),
                base,
                from_round,
            )
            assert forked.to_execution() == spec.run_uniform(0, adversary)

    def test_kernel_counters_accumulate(self):
        """A traced attack counts its kernel work: 4 masks per process
        per simulated round, and one popcount per correct sender per
        round of each distinct run it took the message count of."""
        spec = phase_king_spec(7, 2)
        cache = ExecutionCache()
        ledger = RunLedger()
        attack_weak_consensus(spec, cache=cache, tracer=LedgerTracer(ledger))
        counters = {
            event.name: event.value
            for event in ledger.events
            if event.kind == "counter"
        }
        assert counters["engine.masks_built"] == (
            4 * 7 * counters["engine.rounds_simulated"]
        )
        runs = {id(entry.run): entry.run for entry in cache._entries.values()}
        assert counters["engine.popcounts"] == sum(
            len(run.correct) * run.rounds for run in runs.values()
        )


class _RoundStream(RoundObserver):
    """Records the ``(round, correct-sender messages)`` stream a tracing
    observer sees, from either engine: the kernel reports through
    ``count_round``, the object engine through ``on_round``."""

    def __init__(self):
        self.rounds = []

    def count_round(self, round_, messages):
        self.rounds.append((round_, messages))

    def on_round(self, event):
        self.count_round(event.round, event.sent_by_correct())


def _cheater_isolations():
    for name, builder in sorted(CHEATERS.items()):
        spec = builder(12, 8)
        partition = canonical_partition(12, 8)
        for label, group in (
            ("B", partition.group_b),
            ("C", partition.group_c),
        ):
            for from_round in range(1, spec.rounds + 2):
                yield pytest.param(
                    spec, group, from_round,
                    id=f"{name}-{label}{from_round}",
                )


class TestTracedRoundStream:
    """Both engines feed tracing observers the same round stream.

    The driver traces on the kernel; the object engine is the
    reference for what every traced round must report.
    """

    @pytest.mark.parametrize("spec, group, from_round", _cheater_isolations())
    def test_run_kernel_stream_equals_object_stream(
        self, spec, group, from_round
    ):
        adversary = isolate_group(group, from_round)
        for bit in (0, 1):
            reference = _RoundStream()
            spec.run_uniform(bit, adversary, observers=[reference])
            kernel = _RoundStream()
            run_kernel(
                _config(spec),
                [bit] * spec.n,
                spec.factory,
                compile_omissions(adversary, spec.n),
                observers=[kernel],
            )
            assert reference.rounds
            assert kernel.rounds == reference.rounds

    @pytest.mark.parametrize("spec, group, from_round", [
        case for case in _cheater_isolations()
        if 2 <= case.values[2] <= case.values[0].rounds
    ])
    def test_fork_kernel_stream_equals_object_tail(
        self, spec, group, from_round
    ):
        adversary = isolate_group(group, from_round)
        config = _config(spec)
        for bit in (0, 1):
            reference = _RoundStream()
            spec.run_uniform(bit, adversary, observers=[reference])
            base = run_kernel(
                config, [bit] * spec.n, spec.factory,
                no_faults_compiled(spec.n),
            )
            forker = PrefixForker(config, [bit] * spec.n, spec.factory, base)
            machines, _ = forker.machines_at(from_round)
            forked = _RoundStream()
            fork_kernel(
                config,
                machines,
                compile_omissions(adversary, spec.n),
                base,
                from_round,
                observers=[forked],
            )
            assert forked.rounds
            assert forked.rounds == reference.rounds[from_round - 1:]


def _config(spec):
    return SimulationConfig(
        n=spec.n, t=spec.t, rounds=spec.rounds, check=True
    )


def _speedup_gate_module():
    spec = importlib.util.spec_from_file_location(
        "kernel_speedup_gate", GATE_TOOL
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSpeedupGateFlood:
    """The workload ``tools/kernel_speedup_gate.py`` times is one run.

    The gate divides the object engine's time by the kernel's on a
    dense flood; that ratio means something only if both engines
    compute the same execution.
    """

    @pytest.mark.parametrize("n", [48, 64])
    def test_mask_flood_equals_object_flood(self, n):
        gate = _speedup_gate_module()
        reference = gate.flood_object(n=n)
        trace = gate.flood_kernel(n=n)
        assert reference.rounds == gate.FLOOD_ROUNDS
        assert trace.rounds == gate.FLOOD_ROUNDS
        assert reference.decision(0) == 1
        assert trace.decision(0) == 1
        assert trace.to_execution() == reference
        assert (
            trace.message_complexity() == reference.message_complexity()
        )


class TestKernelOracle:
    def test_oracle_accepts_isolated_run(self):
        spec = phase_king_spec(7, 2)
        oracle = KernelOracle()
        execution = spec.run_uniform(
            1, isolate_group({2, 3}, 2), observers=[oracle]
        )
        assert oracle.rounds_checked == execution.rounds

    def test_oracle_accepts_fault_free_run(self):
        spec = ring_token_spec(12, 8)
        oracle = KernelOracle()
        execution = spec.run_uniform(0, observers=[oracle])
        assert oracle.rounds_checked == execution.rounds

    def test_oracle_rejects_uncompilable_adversary(self):
        spec = phase_king_spec(5, 1)
        adversary = ScheduledOmissionAdversary(
            {1}, OmissionSchedule(
                send_drops=lambda m: False,
                receive_drops=lambda m: False,
            )
        )
        with pytest.raises(ValueError, match="does not compile"):
            spec.run_uniform(1, adversary, observers=[KernelOracle()])

    def test_oracle_catches_divergence(self):
        # Prove the check has teeth: make the shadow kernel compile a
        # *different* adversary than the engine actually runs — the
        # first round where the isolation bites must blow up.
        class Swapped(KernelOracle):
            def on_run_start(self, config, machines, adversary):
                super().on_run_start(
                    config, machines, isolate_group({1, 2}, 1)
                )

        spec = broadcast_weak_consensus_spec(6, 2)
        with pytest.raises(ModelViolation, match="kernel oracle"):
            spec.run_uniform(1, observers=[Swapped()])


class ThinnedFlood(Process):
    """A deterministic protocol with a pseudo-random message pattern.

    Round ``j``'s send set is a pure hash of ``(pid, receiver, j,
    seed)``; payloads fold in the delivery history so any divergence in
    delivered messages cascades into later rounds (making the
    differential test sensitive to ordering and omission mistakes, not
    just message counts).  Decides its running digest at the horizon.
    """

    def __init__(self, pid, n, t, proposal, seed, rounds):
        super().__init__(pid, n, t, proposal)
        self._seed = seed
        self._rounds = rounds
        self._digest = hash((pid, proposal)) & 0xFFFF

    def outgoing(self, round_):
        out = {}
        for receiver in range(self.n):
            if receiver == self.pid:
                continue
            h = (
                self.pid * 1103515245
                + receiver * 12345
                + round_ * 2654435761
                + self._seed
            ) & 0xFFFFFFFF
            if h % 3:
                out[receiver] = (self.proposal, self._digest)
        return out

    def deliver(self, round_, received):
        for sender in sorted(received):
            _, digest = received[sender]
            self._digest = (
                self._digest * 31 + digest + sender
            ) & 0xFFFF
        if round_ >= self._rounds and self.decision is None:
            self.decide(self._digest & 1)


@st.composite
def _thinned_case(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    rounds = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    group_size = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    members = frozenset(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=group_size,
                max_size=group_size,
                unique=True,
            )
        )
    )
    from_round = draw(st.integers(min_value=1, max_value=rounds + 2))
    bit = draw(st.integers(min_value=0, max_value=1))
    return n, rounds, seed, members, from_round, bit


@given(_thinned_case())
@settings(max_examples=60, deadline=None)
def test_differential_thinned_protocols(case):
    n, rounds, seed, members, from_round, bit = case
    t = max(len(members), 1)
    config = SimulationConfig(n=n, t=t, rounds=rounds, check=True)

    def factory(pid, proposal):
        return ThinnedFlood(pid, n, t, proposal, seed, rounds)

    proposals = [bit] * n
    adversary = isolate_group(members, from_round)
    reference = run_execution(config, proposals, factory, adversary)
    compiled = compile_omissions(adversary, n)
    assert compiled is not None
    trace = run_kernel(config, proposals, factory, compiled)
    assert trace.to_execution() == reference
    assert (
        trace.message_complexity() == reference.message_complexity()
    )
    assert trace.decisions() == tuple(
        reference.decision(pid) for pid in range(n)
    )


@st.composite
def _quiescence_case(draw):
    spec = draw(
        st.sampled_from(
            [
                lambda: phase_king_spec(7, 2),
                lambda: broadcast_weak_consensus_spec(8, 4),
                lambda: ring_token_spec(12, 8),
            ]
        )
    )()
    # A horizon padded past the protocol's own rounds lets "all"
    # early stopping actually cut the trace short.
    horizon = spec.rounds + draw(st.integers(0, 3))
    isolated = draw(
        st.lists(
            st.integers(0, spec.n - 1),
            min_size=1,
            max_size=spec.t,
            unique=True,
        )
    )
    adversary = isolate_group(isolated, draw(st.integers(1, horizon + 1)))
    early_stop = draw(st.sampled_from([None, "all"]))
    group = draw(
        st.lists(
            st.integers(0, spec.n - 1),
            min_size=1,
            max_size=spec.n,
            unique=True,
        )
    )
    lo = draw(st.integers(1, horizon + 2))
    hi = draw(st.integers(lo, horizon + 3))
    bit = draw(st.integers(0, 1))
    return spec, horizon, adversary, early_stop, group, lo, hi, bit


@given(_quiescence_case())
@settings(max_examples=80, deadline=None)
def test_quiescence_mask_form_matches_execution_form(case):
    """The driver's quiescent aliasing asks the mask form; it must
    answer as :meth:`Execution.quiescent_toward` does on the
    materialized trace — for any group, for ``lo``/``hi`` past the last
    round, and for early-stopped traces."""
    spec, horizon, adversary, early_stop, group, lo, hi, bit = case
    config = SimulationConfig(n=spec.n, t=spec.t, rounds=horizon, check=True)
    trace = run_kernel(
        config,
        [bit] * spec.n,
        spec.factory,
        compile_omissions(adversary, spec.n),
        early_stop=early_stop,
    )
    assert trace.quiescent_toward(group, lo, hi) == (
        trace.to_execution().quiescent_toward(group, lo, hi)
    )
