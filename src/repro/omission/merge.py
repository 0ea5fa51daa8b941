"""The ``merge`` procedure (Algorithm 5, Lemma 16, Figure 2).

Given two *mergeable* executions (Definition 2)

* ``E_0^{B(k_B)}`` — all processes propose 0, group ``B`` isolated from
  round ``k_B``;
* ``E_b^{C(k_C)}`` — all processes propose ``b``, group ``C`` isolated from
  round ``k_C``;

``merge`` builds a single execution in which *both* groups are isolated
(at their respective rounds), group ``A = Π \\ (B ∪ C)`` runs live and
correct, and every member of ``B`` (resp. ``C``) observes exactly what it
observed in its original execution — hence decides the same.  This is the
splice that forces group ``A`` into the Lemma-3/Lemma-5 contradiction.

Mergeability (Definition 2): ``k_B = k_C = 1``, or ``|k_B - k_C| <= 1`` and
``b = 0``.

Implementation note: Algorithm 5 recomputes every process through the
transition function (its line 18 applies 𝒜 to *all* processes), feeding
group A the full ``to_i`` and groups B/C their *recorded* received sets.
Determinism makes the recomputed B/C behaviour coincide with the records;
we assert that coincidence (the replay cross-check) instead of trusting
it, and machine-check Lemma 16's conclusions on every merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelViolation
from repro.omission.isolation import check_isolated
from repro.sim.execution import Execution, check_execution
from repro.sim.message import Message
from repro.sim.process import Process, ProcessFactory
from repro.sim.state import Behavior, Fragment, behaviors_indistinguishable
from repro.types import Payload, ProcessId, Round


@dataclass(frozen=True)
class MergeSpec:
    """The parameters of a merge: the two groups and isolation rounds.

    Attributes:
        group_b: the paper's group ``B`` (isolated in the first execution).
        group_c: the paper's group ``C`` (isolated in the second).
        round_b: ``k_B``, the round ``B`` is isolated from.
        round_c: ``k_C``, the round ``C`` is isolated from.
    """

    group_b: frozenset[ProcessId]
    group_c: frozenset[ProcessId]
    round_b: Round
    round_c: Round

    def __post_init__(self) -> None:
        if not self.group_b or not self.group_c:
            raise ValueError("merge groups must be non-empty")
        if self.group_b & self.group_c:
            raise ValueError("merge groups must be disjoint")
        if self.round_b < 1 or self.round_c < 1:
            raise ValueError("isolation rounds start at 1")

    def group_a(self, n: int) -> frozenset[ProcessId]:
        """Group ``A``: everyone outside ``B ∪ C``."""
        return frozenset(range(n)) - self.group_b - self.group_c


def uniform_proposal(execution: Execution) -> Payload:
    """The single proposal shared by all processes, if uniform.

    The executions of Table 1 are all-propose-0 or all-propose-1; merging
    is defined for such uniform-proposal executions.

    Raises:
        ModelViolation: if proposals are not uniform.
    """
    proposals = set(execution.proposals().values())
    if len(proposals) != 1:
        raise ModelViolation(
            f"expected a uniform proposal, got {sorted(map(repr, proposals))}"
        )
    return next(iter(proposals))


def check_merge_inputs(
    spec: MergeSpec, exec_b: Execution, exec_c: Execution
) -> None:
    """Validate everything :func:`merge` assumes; raise with specifics."""
    if exec_b.n != exec_c.n or exec_b.t != exec_c.t:
        raise ModelViolation("executions disagree on (n, t)")
    if exec_b.rounds != exec_c.rounds:
        raise ModelViolation(
            f"executions span different horizons "
            f"({exec_b.rounds} vs {exec_c.rounds})"
        )
    if len(spec.group_b) + len(spec.group_c) > exec_b.t:
        raise ModelViolation(
            f"|B| + |C| = {len(spec.group_b) + len(spec.group_c)} "
            f"exceeds t = {exec_b.t}"
        )
    proposal_b = uniform_proposal(exec_b)
    proposal_c = uniform_proposal(exec_c)
    same_round_one = spec.round_b == 1 and spec.round_c == 1
    close_and_same_bit = (
        abs(spec.round_b - spec.round_c) <= 1 and proposal_b == proposal_c
    )
    if not (same_round_one or close_and_same_bit):
        raise ModelViolation(
            f"not mergeable (Definition 2): k_B={spec.round_b}, "
            f"k_C={spec.round_c}, proposals {proposal_b!r}/{proposal_c!r}"
        )
    check_isolated(exec_b, spec.group_b, spec.round_b)
    check_isolated(exec_c, spec.group_c, spec.round_c)
    if exec_b.faulty != spec.group_b:
        raise ModelViolation(
            "first execution must have exactly group B faulty"
        )
    if exec_c.faulty != spec.group_c:
        raise ModelViolation(
            "second execution must have exactly group C faulty"
        )


def merge(
    spec: MergeSpec,
    exec_b: Execution,
    exec_c: Execution,
    factory: ProcessFactory,
) -> Execution:
    """Algorithm 5: splice two mergeable executions into one.

    Args:
        spec: groups and isolation rounds.
        exec_b: the recorded ``E_0^{B(k_B)}``.
        exec_c: the recorded ``E_b^{C(k_C)}``.
        factory: the algorithm under test (builds honest machines); must be
            the same algorithm that produced both recorded executions.

    The inputs must be mergeable (:func:`check_merge_inputs`); re-running
    the B/C machines on their recorded received sets must reproduce
    their recorded sends (the determinism cross-check); and the result
    is validated against Lemma 16's conclusions
    (:func:`check_merge_result`).

    Returns:
        The merged execution with ``faulty = B ∪ C``.
    """
    check_merge_inputs(spec, exec_b, exec_c)
    n = exec_b.n
    horizon = exec_b.rounds
    group_b, group_c = spec.group_b, spec.group_c

    def record_for(pid: ProcessId) -> Execution:
        return exec_c if pid in group_c else exec_b

    machines: list[Process] = [
        factory(pid, record_for(pid).behavior(pid).proposal)
        for pid in range(n)
    ]
    fragments: list[list[Fragment]] = [[] for _ in range(n)]
    for round_ in range(1, horizon + 1):
        states = [machine.snapshot(round_) for machine in machines]
        outgoing_by_pid: list[frozenset[Message]] = []
        inboxes: list[set[Message]] = [set() for _ in range(n)]
        for pid, machine in enumerate(machines):
            mapping = machine.validate_outgoing(
                round_, machine.outgoing(round_)
            )
            messages = frozenset(
                Message(pid, receiver, round_, payload)
                for receiver, payload in mapping.items()
            )
            if pid in group_b or pid in group_c:
                recorded = record_for(pid).behavior(pid).fragment(
                    round_
                ).all_outgoing
                if messages != recorded:
                    raise ModelViolation(
                        f"replay divergence: p{pid} r{round_} sends "
                        f"differ from its recorded behaviour"
                    )
            outgoing_by_pid.append(messages)
            for message in messages:
                inboxes[message.receiver].add(message)
        for pid, machine in enumerate(machines):
            to_me = frozenset(inboxes[pid])
            if pid in group_b or pid in group_c:
                received = record_for(pid).behavior(pid).received(round_)
                if not received <= to_me:
                    raise ModelViolation(
                        f"merge receive-validity pre-check failed: p{pid} "
                        f"r{round_} expects messages nobody sent "
                        "(executions were not mergeable)"
                    )
                receive_omitted = to_me - received
            else:
                received = to_me
                receive_omitted = frozenset()
            fragments[pid].append(
                Fragment(
                    state=states[pid],
                    sent=outgoing_by_pid[pid],
                    send_omitted=frozenset(),
                    received=received,
                    receive_omitted=receive_omitted,
                )
            )
            machine.deliver(
                round_,
                {
                    message.sender: message.payload
                    for message in sorted(
                        received, key=lambda m: m.sender
                    )
                },
            )
    merged = Execution(
        n=n,
        t=exec_b.t,
        faulty=group_b | group_c,
        behaviors=tuple(
            Behavior(
                tuple(fragments[pid]),
                final_state=machines[pid].snapshot(horizon + 1),
            )
            for pid in range(n)
        ),
    )
    check_merge_result(spec, exec_b, exec_c, merged)
    return merged


def check_merge_result(
    spec: MergeSpec,
    exec_b: Execution,
    exec_c: Execution,
    merged: Execution,
) -> None:
    """Machine-check Lemma 16's three conclusions on a merged execution.

    1. The merge is a valid execution.
    2. It is indistinguishable from ``exec_b`` (resp. ``exec_c``) to every
       member of ``B`` (resp. ``C``).
    3. ``B`` (resp. ``C``) is isolated from ``k_B`` (resp. ``k_C``) in it.

    Raises:
        ModelViolation: on the first failing conclusion.
    """
    check_execution(merged)  # conclusion 1
    for pid in sorted(spec.group_b):  # conclusion 2 (B side)
        if not behaviors_indistinguishable(
            merged.behavior(pid), exec_b.behavior(pid)
        ):
            raise ModelViolation(
                f"p{pid} ∈ B distinguishes the merge from E_0^B"
            )
    for pid in sorted(spec.group_c):  # conclusion 2 (C side)
        if not behaviors_indistinguishable(
            merged.behavior(pid), exec_c.behavior(pid)
        ):
            raise ModelViolation(
                f"p{pid} ∈ C distinguishes the merge from E_b^C"
            )
    check_isolated(merged, spec.group_b, spec.round_b)  # conclusion 3
    check_isolated(merged, spec.group_c, spec.round_c)
