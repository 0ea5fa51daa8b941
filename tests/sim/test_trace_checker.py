"""The mask-level Appendix-A checker: trace mutations and a differential.

:func:`~repro.sim.kernel.check_trace` replaces
``check_execution(trace.to_execution())`` on fault-free kernel runs, so
it must reject every mutation the execution checker rejects
(``tests/sim/test_checker_mutations.py`` applies them to executions;
here they are applied to :class:`~repro.sim.kernel.KernelRound` rows),
and accept what the execution checker accepts.

Materialization reads only the send masks, the receive bits of sent
messages and their payloads — an unreceived message becomes a
receive-omission — so three mask mutations never reach an
:class:`~repro.sim.execution.Execution`: a ghost receipt, a send mask
that disagrees with the payload keys, and a sender both received and
receive-omitted.  The mask checker must reject those on its own.  For
the same reason a receipt is erased only at a correct receiver, where
the execution shows it as an omission by a correct process.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.subquadratic import ring_token_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.execution import check_execution
from repro.sim.kernel import (
    KernelRound,
    KernelTrace,
    check_trace,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.simulator import SimulationConfig


def kernel_trace(spec, proposals, adversary=None, early_stop=None):
    compiled = (
        no_faults_compiled(spec.n)
        if adversary is None
        else compile_omissions(adversary, spec.n)
    )
    config = SimulationConfig(
        n=spec.n, t=spec.t, rounds=spec.rounds, check=True
    )
    return run_kernel(
        config, list(proposals), spec.factory, compiled,
        early_stop=early_stop,
    )


def base_trace():
    return kernel_trace(phase_king_spec(4, 1), [0, 1, 0, 1])


def with_row(trace, index, corrupted=None, **fields):
    """A copy of ``trace`` with row ``index`` rebuilt from ``fields``.

    Rows are shared between traces (forks share their prefix), so a
    mutation never edits one in place.
    """
    rows = list(trace.rows)
    row = rows[index]
    values = {name: getattr(row, name) for name in KernelRound.__slots__}
    values.update(fields)
    rows[index] = KernelRound(**values)
    return KernelTrace(
        trace.n,
        trace.t,
        trace.proposals,
        trace.corrupted if corrupted is None else corrupted,
        rows,
    )


def with_corrupted(trace, corrupted):
    """``trace`` with another faulty set, rows shared."""
    return KernelTrace(
        trace.n, trace.t, trace.proposals, corrupted, trace.rows
    )


def replaced(masks, index, value):
    masks = list(masks)
    masks[index] = value
    return masks


def receipts(trace, receivers):
    """Every delivered ``(row index, receiver, sender)`` to ``receivers``."""
    return [
        (index, receiver, sender)
        for index, row in enumerate(trace.rows)
        for receiver in sorted(receivers)
        for sender in range(trace.n)
        if row.recv_masks[receiver] >> sender & 1
    ]


# ----------------------------------------------------------------------
# mutations: each draws its target from ``data`` and returns the mutant,
# or the trace itself when it offers no target
# ----------------------------------------------------------------------


def erase_receipt(trace, data):
    """Drop a delivery without recording an omission."""
    targets = receipts(trace, trace.correct)
    if not targets:
        return trace
    index, receiver, sender = data.draw(st.sampled_from(targets))
    row = trace.rows[index]
    return with_row(
        trace, index,
        recv_masks=replaced(
            row.recv_masks, receiver,
            row.recv_masks[receiver] & ~(1 << sender),
        ),
    )


def correct_omission(trace, data):
    """Turn a delivery into a receive-omission by a correct process."""
    targets = receipts(trace, trace.correct)
    if not targets:
        return trace
    index, receiver, sender = data.draw(st.sampled_from(targets))
    row = trace.rows[index]
    bit = 1 << sender
    return with_row(
        trace, index,
        recv_masks=replaced(
            row.recv_masks, receiver, row.recv_masks[receiver] & ~bit
        ),
        omit_masks=replaced(
            row.omit_masks, receiver, row.omit_masks[receiver] | bit
        ),
    )


def faulty_receipt(trace, data):
    """A delivery to a receiver the budget lets the mutation corrupt."""
    budget_left = len(trace.corrupted) < trace.t
    targets = receipts(
        trace, range(trace.n) if budget_left else trace.corrupted
    )
    if not targets:
        return None
    return data.draw(st.sampled_from(targets))


def faulty_omission(trace, data):
    """A receive-omission by a process moved into the faulty set: valid."""
    target = faulty_receipt(trace, data)
    if target is None:
        return trace
    index, receiver, sender = target
    row = trace.rows[index]
    bit = 1 << sender
    return with_row(
        trace, index, corrupted=trace.corrupted | {receiver},
        recv_masks=replaced(
            row.recv_masks, receiver, row.recv_masks[receiver] & ~bit
        ),
        omit_masks=replaced(
            row.omit_masks, receiver, row.omit_masks[receiver] | bit
        ),
    )


def ghost_message(trace, data):
    """A delivery from a sender that sent nothing on that channel.

    Only the receiver's record changes: the sender's mask and payloads
    still say it sent nothing.
    """
    free = [
        (index, receiver, sender)
        for index, row in enumerate(trace.rows)
        for receiver in range(trace.n)
        for sender in range(trace.n)
        if sender != receiver
        and not row.send_masks[sender] >> receiver & 1
    ]
    if not free:
        return trace
    index, receiver, sender = data.draw(st.sampled_from(free))
    row = trace.rows[index]
    return with_row(
        trace, index,
        recv_masks=replaced(
            row.recv_masks, receiver,
            row.recv_masks[receiver] | 1 << sender,
        ),
    )


def payload_mismatch(trace, data):
    """Flip one send-mask bit and nothing else: a payload the mask does
    not send, or a mask bit with no payload."""
    index = data.draw(st.integers(0, trace.rounds - 1))
    sender = data.draw(st.integers(0, trace.n - 1))
    receiver = data.draw(
        st.integers(0, trace.n - 1).filter(lambda pid: pid != sender)
    )
    row = trace.rows[index]
    return with_row(
        trace, index,
        send_masks=replaced(
            row.send_masks, sender, row.send_masks[sender] ^ 1 << receiver
        ),
    )


def receipt_overlap(trace, data):
    """Record one delivery as received and receive-omitted at once, by a
    faulty receiver (so omission-validity alone cannot catch it)."""
    target = faulty_receipt(trace, data)
    if target is None:
        return trace
    index, receiver, sender = target
    row = trace.rows[index]
    return with_row(
        trace, index, corrupted=trace.corrupted | {receiver},
        omit_masks=replaced(
            row.omit_masks, receiver,
            row.omit_masks[receiver] | 1 << sender,
        ),
    )


def rewrite_decision(trace, data):
    """Write a decision that the next round changes."""
    if trace.rounds < 2:
        return trace
    index = data.draw(st.integers(0, trace.rounds - 2))
    pid = data.draw(st.integers(0, trace.n - 1))
    decisions = list(trace.rows[index].decisions)
    decisions[pid] = ("rewritten", data.draw(st.integers()))
    return with_row(trace, index, decisions=tuple(decisions))


def self_send(trace, data):
    """A sender addressing itself."""
    index = data.draw(st.integers(0, trace.rounds - 1))
    pid = data.draw(st.integers(0, trace.n - 1))
    row = trace.rows[index]
    payloads = list(row.payloads)
    payloads[pid] = {**payloads[pid], pid: "self"}
    bit = 1 << pid
    return with_row(
        trace, index,
        payloads=payloads,
        send_masks=replaced(row.send_masks, pid, row.send_masks[pid] | bit),
        recv_masks=replaced(row.recv_masks, pid, row.recv_masks[pid] | bit),
    )


def over_budget(trace, data):
    """More than ``t`` faulty processes."""
    corrupted = frozenset(
        data.draw(
            st.lists(
                st.integers(0, trace.n - 1),
                min_size=trace.t + 1,
                max_size=trace.t + 1,
                unique=True,
            )
        )
    )
    return with_corrupted(trace, corrupted)


def unknown_faulty(trace, data):
    """A faulty id outside ``range(n)``."""
    outsider = data.draw(st.sampled_from([-1, trace.n, trace.n + 7]))
    return with_corrupted(trace, frozenset([outsider]))


EXECUTION_VISIBLE = (
    erase_receipt,
    correct_omission,
    faulty_omission,
    rewrite_decision,
    self_send,
    over_budget,
    unknown_faulty,
)
MASK_ONLY = (ghost_message, payload_mismatch, receipt_overlap)


def trace_rejects(trace):
    try:
        check_trace(trace)
    except ModelViolation:
        return True
    return False


def execution_rejects(trace):
    # A self-addressed message cannot even be built (ValueError).
    try:
        check_execution(trace.to_execution())
    except (ModelViolation, ValueError):
        return True
    return False


class TestMaskMutationRejection:
    @pytest.mark.parametrize(
        "mutation",
        [
            erase_receipt,
            ghost_message,
            correct_omission,
            payload_mismatch,
            rewrite_decision,
            receipt_overlap,
            self_send,
            over_budget,
            unknown_faulty,
        ],
        ids=lambda mutation: mutation.__name__,
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_mutation_is_detected(self, mutation, data):
        with pytest.raises(ModelViolation):
            check_trace(mutation(base_trace(), data))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_omission_by_a_faulty_process_passes(self, data):
        check_trace(faulty_omission(base_trace(), data))

    def test_unmutated_trace_passes(self):
        check_trace(base_trace())

    def test_isolated_and_early_stopped_traces_pass(self):
        spec = broadcast_weak_consensus_spec(8, 4)
        check_trace(
            kernel_trace(spec, [1] * 8, isolate_group({2, 5}, 2))
        )
        check_trace(
            kernel_trace(
                spec, [0] * 8, isolate_group({1, 3, 6}, 1),
                early_stop="all",
            )
        )


SPECS = (
    lambda: phase_king_spec(4, 1),
    lambda: phase_king_spec(7, 2),
    lambda: broadcast_weak_consensus_spec(8, 4),
    lambda: ring_token_spec(12, 8),
)


@st.composite
def kernel_traces(draw):
    spec = draw(st.sampled_from(SPECS))()
    proposals = draw(
        st.lists(st.integers(0, 1), min_size=spec.n, max_size=spec.n)
    )
    adversary = None
    if draw(st.booleans()):
        members = draw(
            st.lists(
                st.integers(0, spec.n - 1),
                min_size=1,
                max_size=spec.t,
                unique=True,
            )
        )
        adversary = isolate_group(
            members, draw(st.integers(1, spec.rounds + 1))
        )
    early_stop = draw(st.sampled_from([None, "all"]))
    return kernel_trace(spec, proposals, adversary, early_stop)


@seed(20260402)
@settings(max_examples=120, deadline=None)
@given(
    trace=kernel_traces(),
    mutation=st.sampled_from((None, *EXECUTION_VISIBLE, *MASK_ONLY)),
    data=st.data(),
)
def test_mask_checker_agrees_with_execution_checker(trace, mutation, data):
    """``check_trace`` rejects iff ``check_execution`` of the
    materialized trace does, over kernel traces and their mutations;
    the mutations materialization cannot see are rejected by the masks
    alone."""
    mutated = trace if mutation is None else mutation(trace, data)
    if mutated is not trace and mutation in MASK_ONLY:
        assert trace_rejects(mutated)
    else:
        assert trace_rejects(mutated) == execution_rejects(mutated)
