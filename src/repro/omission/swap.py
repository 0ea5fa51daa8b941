"""The ``swap_omission`` procedure (Algorithm 4) and Lemma 15.

``swap_omission(E, p_i)`` builds an execution ``E'`` in which every message
``p_i`` receive-omitted in ``E`` is instead *send-omitted by its sender*.
Nobody's observations change (received sets are untouched), so ``E'`` is
indistinguishable from ``E`` to every process — but the blame moves:
``p_i`` becomes correct, while the senders whose messages were dropped
become faulty.  This is the step that turns "a faulty process disagreed"
into "a *correct* process disagreed", completing the Lemma-2 contradiction.

The module provides Algorithm 4 twice, each with a wrapper asserting
every conclusion of Lemma 15 on the concrete instance:

* on masks — :func:`swap_trace` and :func:`swap_trace_checked`, which
  the lower-bound driver runs: ``p_i``'s receive-omit bits move onto
  the senders' send-omit masks, every unchanged
  :class:`~repro.sim.kernel.KernelRound` and every payload map is
  shared, and the lemma is checked with
  :func:`~repro.sim.kernel.check_trace` and a row comparison;
* on :class:`~repro.sim.execution.Execution` objects —
  :func:`swap_omission` and :func:`swap_omission_checked`, the
  fragment surgery as the paper writes it, which E9 runs and the tests
  hold the mask form to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelViolation
from repro.omission.indistinguishability import indistinguishable_to_all
from repro.sim.execution import Execution, check_execution
from repro.sim.kernel import KernelTrace, check_trace, mask_members
from repro.sim.message import Message
from repro.sim.state import Behavior, Fragment
from repro.types import ProcessId


def swap_omission(execution: Execution, pid: ProcessId) -> Execution:
    """Algorithm 4: re-attribute ``pid``'s receive-omissions to the senders.

    For every process ``p_z`` and round ``j``:

    * messages of ``p_z`` that ``pid`` receive-omitted move from
      ``sent`` to ``send_omitted`` (line 9);
    * ``pid``'s receive-omitted set is emptied of those messages
      (``M^{RO(j)} \\ M``, line 9);
    * the new faulty set contains exactly the processes that still commit
      an omission fault afterwards (lines 10-11).

    The result's faulty set may exceed ``t`` if the preconditions of
    Lemma 15 do not hold; use :func:`swap_omission_checked` to enforce
    them.
    """
    dropped: frozenset[Message] = execution.behavior(
        pid
    ).all_receive_omitted()
    new_faulty: set[ProcessId] = set()
    new_behaviors: list[Behavior] = []
    for pz in range(execution.n):
        behavior = execution.behavior(pz)
        fragments: list[Fragment] = []
        commits_fault = False
        for fragment in behavior:
            sent_z = frozenset(
                message
                for message in dropped
                if message.round == fragment.round
                and message.sender == pz
            )
            new_fragment = fragment.replacing(
                sent=fragment.sent - sent_z,
                send_omitted=fragment.send_omitted | sent_z,
                receive_omitted=fragment.receive_omitted - dropped,
            )
            if new_fragment.commits_fault:
                commits_fault = True
            fragments.append(new_fragment)
        if commits_fault:
            new_faulty.add(pz)
        new_behaviors.append(
            Behavior(tuple(fragments), final_state=behavior.final_state)
        )
    return Execution(
        n=execution.n,
        t=execution.t,
        faulty=frozenset(new_faulty),
        behaviors=tuple(new_behaviors),
    )


@dataclass(frozen=True)
class SwapResult:
    """Outcome of a checked swap: the new execution and what Lemma 15 says.

    Attributes:
        execution: the transformed execution ``E'``.
        now_correct: the focal process, correct in ``E'``.
        newly_faulty: senders blamed for the former receive-omissions.
    """

    execution: Execution
    now_correct: ProcessId
    newly_faulty: frozenset[ProcessId]


def swap_omission_checked(
    execution: Execution,
    pid: ProcessId,
    witness_correct: ProcessId | None = None,
) -> SwapResult:
    """Run Algorithm 4 and machine-check every clause of Lemma 15.

    Preconditions checked (the lemma's hypotheses):

    * ``pid`` commits no send-omission faults in ``execution``;
    * the resulting faulty set fits the budget ``t``.

    Conclusions checked (the lemma's statements 1-4):

    1. the result is a valid execution (all A.1.6 guarantees);
    2. the result is indistinguishable from ``execution`` to every process;
    3. ``pid`` is correct in the result;
    4. ``witness_correct`` (if given) remains correct in the result.

    Raises:
        ModelViolation: if any hypothesis or conclusion fails — meaning
            either misuse, or (if hypotheses held) a bug falsifying the
            lemma on this instance.
    """
    original_behavior = execution.behavior(pid)
    if original_behavior.all_send_omitted():
        raise ModelViolation(
            f"Lemma 15 precondition: p{pid} must not send-omit"
        )
    swapped = swap_omission(execution, pid)
    if len(swapped.faulty) > execution.t:
        raise ModelViolation(
            f"Lemma 15 precondition: swapped faulty set "
            f"{sorted(swapped.faulty)} exceeds t={execution.t}"
        )
    check_execution(swapped)  # conclusion 1
    if not indistinguishable_to_all(execution, swapped):  # conclusion 2
        raise ModelViolation(
            "swap_omission changed some process's observations"
        )
    if pid in swapped.faulty:  # conclusion 3
        raise ModelViolation(f"p{pid} still faulty after swap")
    if (
        witness_correct is not None
        and witness_correct in swapped.faulty
    ):  # conclusion 4
        raise ModelViolation(
            f"witness p{witness_correct} became faulty after swap"
        )
    return SwapResult(
        execution=swapped,
        now_correct=pid,
        newly_faulty=swapped.faulty - execution.faulty,
    )


def swap_trace(trace: KernelTrace, pid: ProcessId) -> KernelTrace:
    """Algorithm 4 on masks: ``swap_omission`` of a kernel trace.

    In every round where ``pid`` receive-omitted, the omitted senders'
    bits leave ``pid``'s receive-omit mask and ``pid``'s bit joins each
    sender's send-omit mask; received masks, payload maps and decisions
    are untouched.  The other rows are shared as they are.  Every row
    of ``trace`` keeps a materialization memo from here on
    (:meth:`~repro.sim.kernel.KernelRound.share_materialization`), so
    the two traces materialize the same messages and share every
    fragment the swap did not change.  The new faulty set holds
    exactly the processes that still omit something (lines 10-11).
    Like :func:`swap_omission` it checks nothing; see
    :func:`swap_trace_checked`.
    """
    n = trace.n
    bit = 1 << pid
    rows = []
    for row in trace.rows:
        dropped = row.omit_masks[pid]
        if not dropped:
            row.share_materialization()
            rows.append(row)
            continue
        omit_masks = list(row.omit_masks)
        omit_masks[pid] = 0
        send_omit_masks = list(row.send_omit_masks)
        for sender in mask_members(dropped):
            send_omit_masks[sender] |= bit
        rows.append(row.with_omissions(send_omit_masks, omit_masks))
    omitting = 0
    for row in rows:
        for process in range(n):
            if row.omit_masks[process] or row.send_omit_masks[process]:
                omitting |= 1 << process
    return KernelTrace(
        n=n,
        t=trace.t,
        proposals=trace.proposals,
        corrupted=frozenset(mask_members(omitting)),
        rows=rows,
    )


def swap_trace_checked(trace: KernelTrace, pid: ProcessId) -> KernelTrace:
    """Run :func:`swap_trace` and check every clause of Lemma 15 on masks.

    The checks, their order and their messages are those of
    :func:`swap_omission_checked` (the lower-bound driver writes the
    message of a failed extraction into its log): ``pid`` does not
    send-omit; the swapped faulty set fits ``t``; the result passes
    :func:`~repro.sim.kernel.check_trace`; every process's received
    rows and the payloads behind them are unchanged (indistinguishable
    to all); ``pid`` is correct.

    Raises:
        ModelViolation: if any hypothesis or conclusion fails.
    """
    if any(row.send_omit_masks[pid] for row in trace.rows):
        raise ModelViolation(
            f"Lemma 15 precondition: p{pid} must not send-omit"
        )
    swapped = swap_trace(trace, pid)
    if len(swapped.corrupted) > trace.t:
        raise ModelViolation(
            f"Lemma 15 precondition: swapped faulty set "
            f"{sorted(swapped.corrupted)} exceeds t={trace.t}"
        )
    check_trace(swapped)  # conclusion 1
    if swapped.proposals != trace.proposals or any(  # conclusion 2
        after.recv_masks != before.recv_masks
        or after.payloads != before.payloads
        for before, after in zip(trace.rows, swapped.rows)
    ):
        raise ModelViolation(
            "swap_omission changed some process's observations"
        )
    if pid in swapped.corrupted:  # conclusion 3
        raise ModelViolation(f"p{pid} still faulty after swap")
    return swapped
