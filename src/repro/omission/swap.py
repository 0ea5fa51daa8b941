"""The ``swap_omission`` procedure (Algorithm 4) and Lemma 15.

``swap_omission(E, p_i)`` builds an execution ``E'`` in which every message
``p_i`` receive-omitted in ``E`` is instead *send-omitted by its sender*.
Nobody's observations change (received sets are untouched), so ``E'`` is
indistinguishable from ``E`` to every process — but the blame moves:
``p_i`` becomes correct, while the senders whose messages were dropped
become faulty.  This is the step that turns "a faulty process disagreed"
into "a *correct* process disagreed", completing the Lemma-2 contradiction.

The module provides the raw transformation (:func:`swap_omission`) and a
checked wrapper (:func:`swap_omission_checked`) asserting every conclusion
of Lemma 15 on the concrete instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelViolation
from repro.omission.indistinguishability import indistinguishable_to_all
from repro.sim.execution import Execution, check_execution
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
