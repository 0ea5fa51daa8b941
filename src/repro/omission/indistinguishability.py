"""Indistinguishability of executions (§3) and divergence analysis (Fig. 1).

Two executions are indistinguishable *to a process* iff the process has the
same proposal and receives identical messages in every round of both.  The
process's own omissions are invisible to it, so they do not enter the
definition — this is the pivot of every construction in the paper.

:func:`divergence_profile` reconstructs the Figure-1 colour bands: given a
reference execution and an isolated variant, it reports, per process, the
first round in which the process's *outgoing* behaviour deviates.  For a
group ``G`` isolated at round ``R`` the paper's picture is: ``G`` deviates
from round ``R+1`` (it stopped hearing the outside at ``R``) and the rest
deviates from round ``R+2`` (one propagation step later) at the earliest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.sim.execution import Execution
from repro.sim.state import behaviors_indistinguishable
from repro.types import ProcessId, Round


def indistinguishable_to(
    left: Execution, right: Execution, pid: ProcessId
) -> bool:
    """Whether ``pid`` cannot tell ``left`` from ``right`` (§3)."""
    return behaviors_indistinguishable(
        left.behavior(pid), right.behavior(pid)
    )


def indistinguishable_to_all(left: Execution, right: Execution) -> bool:
    """Whether *no* process can tell the executions apart.

    This is the Lemma-15 guarantee for ``swap_omission``: the surgery
    re-attributes omissions without changing what anyone observes.
    """
    if left.n != right.n:
        return False
    return all(
        indistinguishable_to(left, right, pid) for pid in range(left.n)
    )


def first_distinguishing_round(
    left: Execution, right: Execution, pid: ProcessId
) -> Round | None:
    """The first round whose received set differs for ``pid``, or ``None``.

    ``None`` means the executions are indistinguishable to ``pid`` over the
    common horizon (a differing proposal is reported as round 0 — the
    process can tell before any communication).
    """
    left_behavior = left.behavior(pid)
    right_behavior = right.behavior(pid)
    if left_behavior.proposal != right_behavior.proposal:
        return 0
    horizon = min(left_behavior.rounds, right_behavior.rounds)
    for round_ in range(1, horizon + 1):
        if left_behavior.received(round_) != right_behavior.received(
            round_
        ):
            return round_
    return None


def first_send_divergence(
    left: Execution, right: Execution, pid: ProcessId
) -> Round | None:
    """The first round where ``pid``'s *attempted sends* differ, or ``None``.

    Compares ``sent ∪ send_omitted`` (the algorithm's output, which the
    adversary cannot forge in the omission model), so this tracks genuine
    state divergence rather than adversarial dropping.
    """
    left_behavior = left.behavior(pid)
    right_behavior = right.behavior(pid)
    horizon = min(left_behavior.rounds, right_behavior.rounds)
    for round_ in range(1, horizon + 1):
        left_out = left_behavior.fragment(round_).all_outgoing
        right_out = right_behavior.fragment(round_).all_outgoing
        if left_out != right_out:
            return round_
    return None


@dataclass(frozen=True)
class DivergenceProfile:
    """Per-process first-divergence rounds between two executions (Fig. 1).

    Attributes:
        receive_divergence: first round each process *observes* a
            difference (``None``: never).
        send_divergence: first round each process *acts* differently.
    """

    receive_divergence: Mapping[ProcessId, Round | None]
    send_divergence: Mapping[ProcessId, Round | None]

    def earliest_send_divergence(
        self, group: frozenset[ProcessId] | set[ProcessId]
    ) -> Round | None:
        """The earliest send-divergence round among ``group``."""
        rounds = [
            self.send_divergence[pid]
            for pid in group
            if self.send_divergence[pid] is not None
        ]
        return min(rounds) if rounds else None


def divergence_profile(
    reference: Execution, variant: Execution
) -> DivergenceProfile:
    """Compute Figure-1 style divergence bands between two executions."""
    if reference.n != variant.n:
        raise ValueError("executions have different system sizes")
    return DivergenceProfile(
        receive_divergence={
            pid: first_distinguishing_round(reference, variant, pid)
            for pid in range(reference.n)
        },
        send_divergence={
            pid: first_send_divergence(reference, variant, pid)
            for pid in range(reference.n)
        },
    )
