"""The idle fast paths: a process-round that sends and receives nothing.

The round kernel, the materializer and the fragment checker each give
such a cell an O(1) branch.  Two things can go wrong there, and both
are pinned here:

* **aliasing** — a fast path that stores the machine's own (empty)
  outgoing mapping as a payload row, or hands several receivers one
  shared empty dict, lets a machine that keeps and mutates mappings
  rewrite the trace or its neighbours' inboxes.  :class:`Hoarder` does
  exactly that; on it the kernel must equal the object engine
  (:class:`~repro.sim.engine.RoundEngine` driven directly), and a
  finished trace's payload rows must not move when its machines run on;
* **skipped work** — each committed mutant below swaps a fast path for a
  wrong one by rewriting one line of the real function's source, and
  asserts that an existing property then fails.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_kernel_equivalence as equivalence
import test_state as fragment_conditions
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.sim import kernel, state
from repro.sim.engine import RoundEngine, TraceRecorder
from repro.sim.process import Process
from repro.sim.simulator import SimulationConfig


def source_mutant(function, old, new):
    """``function`` recompiled from its source with the one line
    ``old`` replaced by ``new``, in the namespace of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not one line of the source"
    namespace = dict(function.__globals__)
    exec(
        compile(
            source.replace(old, new),
            inspect.getsourcefile(function),
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        ),
        namespace,
    )
    return namespace[function.__name__]


class Hoarder(Process):
    """A machine that aliases every mapping it touches.

    ``outgoing`` returns one dict object every round, refilled in place
    and empty on silent rounds; ``deliver`` writes a key of its own into
    the mapping it is handed and keeps it.  Payloads and the decision
    fold in the sizes of every kept mapping, so an inbox shared between
    receivers or rounds changes later messages and the decision.
    """

    def __init__(self, pid, n, t, proposal, seed, rounds):
        super().__init__(pid, n, t, proposal)
        self._seed = seed
        self._rounds = rounds
        self._out: dict = {}
        self._kept: list[dict] = []

    def _tally(self):
        return sum(len(kept) for kept in self._kept)

    def outgoing(self, round_):
        self._out.clear()
        if (round_ + self._seed) % 3:  # every third round is silent
            for receiver in range(self.n):
                mix = self.pid * 7 + receiver * 13 + round_ * 5 + self._seed
                if receiver != self.pid and mix % 4 == 0:
                    self._out[receiver] = (self.proposal, self._tally())
        return self._out

    def deliver(self, round_, received):
        received[("kept by", self.pid)] = round_
        self._kept.append(received)
        if round_ >= self._rounds and self.decision is None:
            self.decide(self._tally() & 1)


def _hoarders(n, t, seed, rounds, made):
    def factory(pid, proposal):
        machine = Hoarder(pid, n, t, proposal, seed, rounds)
        made.append(machine)
        return machine

    return factory


def _object_run(config, proposals, factory, adversary):
    machines = [factory(pid, proposals[pid]) for pid in range(config.n)]
    recorder = TraceRecorder()
    RoundEngine(config, machines, adversary, [recorder]).run()
    return recorder.execution()


@st.composite
def _hoarder_case(draw):
    n = draw(st.integers(3, 9))
    rounds = draw(st.integers(2, 7))
    seed = draw(st.integers(0, 2**16))
    members = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                 unique=True)
    )
    from_round = draw(st.integers(1, rounds + 1))
    bit = draw(st.integers(0, 1))
    return n, rounds, seed, frozenset(members), from_round, bit


def _payload_rows(trace):
    return [[dict(payloads) for payloads in row.payloads]
            for row in trace.rows]


def _assert_hoarders_agree(case):
    n, rounds, seed, members, from_round, bit = case
    t = len(members)
    config = SimulationConfig(n=n, t=t, rounds=rounds, check=True)
    adversary = isolate_group(members, from_round)
    proposals = [bit] * n
    reference = _object_run(
        config, proposals, _hoarders(n, t, seed, rounds, []), adversary
    )
    machines: list[Hoarder] = []
    trace = kernel.run_kernel(
        config,
        proposals,
        _hoarders(n, t, seed, rounds, machines),
        compile_omissions(adversary, n),
    )
    rows = _payload_rows(trace)
    for round_ in range(rounds + 1, rounds + 7):  # the machines run on
        for machine in machines:
            machine.outgoing(round_)
            machine.deliver(round_, {})
        assert _payload_rows(trace) == rows
    assert trace.to_execution() == reference
    assert trace.message_complexity() == reference.message_complexity()


class TestAliasing:
    @given(_hoarder_case())
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_object_engine_on_hoarders(self, case):
        _assert_hoarders_agree(case)

    def test_silent_rounds_occur(self):
        """The fixture exercises the fast paths: some process-rounds
        send nothing and some receive nothing."""
        config = SimulationConfig(n=6, t=1, rounds=6, check=True)
        trace = kernel.run_kernel(
            config, [0] * 6, _hoarders(6, 1, 0, 6, []),
            compile_omissions(isolate_group({5}, 2), 6),
        )
        cells = [(row.send_masks[pid], row.recv_masks[pid])
                 for row in trace.rows for pid in range(6)]
        assert (0, 0) in cells
        assert any(send for send, _ in cells)

    @pytest.mark.parametrize("old, new", [
        ("payload_rows.append({})", "payload_rows.append(mapping)"),
        ("machine.deliver(round_, {})", "machine.deliver(round_, _shared)"),
    ], ids=["row-aliases-the-machines-mapping", "one-inbox-for-all"])
    def test_aliasing_kernel_disagrees(self, monkeypatch, old, new):
        """Mutation: an idle fast path that shares a mapping with a
        machine is caught by the hoarder property."""
        monkeypatch.setattr(kernel, "_shared", {}, raising=False)
        monkeypatch.setattr(
            kernel, "_step_round", source_mutant(kernel._step_round, old, new)
        )
        with pytest.raises(AssertionError):
            _assert_hoarders_agree((6, 6, 0, frozenset({5}), 2, 0))


class TestCommittedMutants:
    def test_kernel_skipping_idle_deliver_disagrees(self, monkeypatch):
        """Mutation: a kernel that skips ``deliver`` for a machine with
        nothing arriving.  Ring-token's last member decides on the
        verdict round, in which nothing reaches it; the engine
        equivalence property catches the missing decision."""
        monkeypatch.setattr(
            kernel,
            "_step_round",
            source_mutant(
                kernel._step_round, "machine.deliver(round_, {})", "pass"
            ),
        )
        (case,) = [
            case for case in equivalence.TestEngineEquivalence.CASES
            if case[0] == "ring_token_isolated"
        ]
        with pytest.raises(AssertionError):
            equivalence.TestEngineEquivalence().test_execution_and_complexity_equal(
                *case[1:]
            )

    def test_fragment_check_on_sent_and_received_only_is_caught(
        self, monkeypatch
    ):
        """Mutation: ``check_fragment``'s early exit looks only at
        ``sent`` and ``received``.  A fragment whose sole message is
        receive-omitted and carries another round then passes, and the
        condition-3 property fails."""
        mutant = source_mutant(
            state.check_fragment,
            "if not (sent or send_omitted or received or receive_omitted):",
            "if not (sent or received):",
        )
        monkeypatch.setattr(fragment_conditions, "check_fragment", mutant)
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            fragment_conditions.TestFragmentConditions(
            ).test_condition3_receive_omitted_only()
