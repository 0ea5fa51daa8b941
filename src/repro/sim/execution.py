"""Executions of the model and their validity conditions (A.1.6).

An execution is a tuple ``[F, B_1, ..., B_n]`` of a faulty set and one
behavior per process, subject to five guarantees:

* *Faulty processes*: ``|F| <= t``.
* *Composition*: every ``B_i`` is a well-formed behavior of ``p_i``.
* *Send-validity*: a successfully sent message is received or
  receive-omitted by its receiver in the same round.
* *Receive-validity*: a received or receive-omitted message was successfully
  sent in the same round.
* *Omission-validity*: only processes in ``F`` commit omission faults.

:func:`check_execution` enforces all five.  The proof constructions
(``swap_omission``, ``merge``) produce :class:`Execution` values which are
re-validated by these checks, making lemmas 15 and 16 machine-checked on
every concrete instance the test-suite and experiments exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ModelViolation
from repro.sim.message import Message
from repro.sim.state import Behavior, check_behavior
from repro.types import Payload, ProcessId, Round, validate_system_size


@dataclass(frozen=True)
class Execution:
    """A k-round execution record (A.1.6).

    Attributes:
        n: total number of processes.
        t: the corruption budget the execution must respect.
        faulty: the set ``F`` of (at most ``t``) corrupted processes.
        behaviors: one :class:`Behavior` per process, indexed by id.
    """

    n: int
    t: int
    faulty: frozenset[ProcessId]
    behaviors: tuple[Behavior, ...]

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        if len(self.behaviors) != self.n:
            raise ValueError(
                f"expected {self.n} behaviors, got {len(self.behaviors)}"
            )

    @property
    def rounds(self) -> int:
        """The number of rounds the execution spans."""
        return self.behaviors[0].rounds

    @property
    def correct(self) -> frozenset[ProcessId]:
        """``Correct(E)``: processes not corrupted in this execution."""
        return frozenset(range(self.n)) - self.faulty

    def behavior(self, pid: ProcessId) -> Behavior:
        """The behavior of process ``pid``."""
        return self.behaviors[pid]

    def decision(self, pid: ProcessId) -> Payload | None:
        """The decision of process ``pid`` (``None`` if undecided)."""
        return self.behaviors[pid].decision

    def decisions(self) -> dict[ProcessId, Payload | None]:
        """All decisions, keyed by process id."""
        return {pid: self.decision(pid) for pid in range(self.n)}

    def correct_decisions(self) -> dict[ProcessId, Payload | None]:
        """Decisions of correct processes only."""
        return {pid: self.decision(pid) for pid in sorted(self.correct)}

    def proposals(self) -> dict[ProcessId, Payload]:
        """All proposals, keyed by process id."""
        return {
            pid: self.behaviors[pid].proposal for pid in range(self.n)
        }

    def message_complexity(self) -> int:
        """Messages sent by **correct** processes (§2, Message complexity).

        The paper counts every message a correct process sends, including
        those sent after all correct processes have decided, and including
        messages that faulty receivers go on to receive-omit.  Send-omitted
        messages are not sent (a correct process send-omits nothing anyway).
        """
        return sum(
            len(self.behaviors[pid].all_sent()) for pid in self.correct
        )

    def total_messages_sent(self) -> int:
        """Messages successfully sent by *all* processes (informational)."""
        return sum(
            len(behavior.all_sent()) for behavior in self.behaviors
        )

    def messages_in_round(self, round_: Round) -> frozenset[Message]:
        """All messages successfully sent in ``round_``."""
        return frozenset().union(
            *(behavior.sent(round_) for behavior in self.behaviors)
        )

    def prefix(self, rounds: int) -> "Execution":
        """The execution truncated to its first ``rounds`` rounds."""
        return Execution(
            n=self.n,
            t=self.t,
            faulty=self.faulty,
            behaviors=tuple(
                behavior.prefix(rounds) for behavior in self.behaviors
            ),
        )


def check_execution(execution: Execution) -> None:
    """Check all five execution guarantees of A.1.6.

    This is the post-hoc checker for *recorded* traces (and for the
    surgery products of :mod:`repro.omission` — swapped and merged
    executions).  Live engine runs enforce the same conditions round by
    round via :class:`~repro.sim.engine.IncrementalChecker`, which fails
    at the first offending round instead of after the horizon.

    Raises:
        ModelViolation: naming the first violated guarantee.
    """
    _check_faulty_budget(execution)
    _check_composition(execution)
    _check_send_validity(execution)
    _check_receive_validity(execution)
    _check_omission_validity(execution)


def _check_faulty_budget(execution: Execution) -> None:
    if len(execution.faulty) > execution.t:
        raise ModelViolation(
            f"|F| = {len(execution.faulty)} exceeds t = {execution.t}"
        )
    for pid in execution.faulty:
        if not 0 <= pid < execution.n:
            raise ModelViolation(f"faulty set names unknown process {pid}")


def _check_composition(execution: Execution) -> None:
    rounds = execution.rounds
    for pid, behavior in enumerate(execution.behaviors):
        if behavior.process != pid:
            raise ModelViolation(
                f"behavior at index {pid} belongs to "
                f"process {behavior.process}"
            )
        if behavior.rounds != rounds:
            raise ModelViolation(
                f"p{pid} spans {behavior.rounds} rounds, "
                f"execution spans {rounds}"
            )
        check_behavior(behavior)


def _check_send_validity(execution: Execution) -> None:
    for behavior in execution.behaviors:
        for fragment in behavior:
            for message in fragment.sent:
                receiver = execution.behaviors[message.receiver]
                incoming = receiver.fragment(message.round).all_incoming
                if message not in incoming:
                    raise ModelViolation(
                        f"send-validity: {message} sent but neither "
                        "received nor receive-omitted"
                    )


def _check_receive_validity(execution: Execution) -> None:
    for behavior in execution.behaviors:
        for fragment in behavior:
            for message in fragment.all_incoming:
                sender = execution.behaviors[message.sender]
                if message not in sender.sent(message.round):
                    raise ModelViolation(
                        f"receive-validity: {message} received or "
                        "receive-omitted but never successfully sent"
                    )


def _check_omission_validity(execution: Execution) -> None:
    for pid, behavior in enumerate(execution.behaviors):
        if behavior.commits_fault and pid not in execution.faulty:
            raise ModelViolation(
                f"omission-validity: p{pid} commits omission faults but "
                "is not in the faulty set"
            )


TransitionOracle = Callable[
    [ProcessId, Payload],
    "object",
]
"""A factory producing a fresh deterministic state machine for a process.

The returned object must expose the :class:`repro.sim.process.Process`
interface.  Used by :func:`check_transitions` to validate behavior
condition 7 (fragments chained by the algorithm's transition function).
"""


def check_transitions(
    execution: Execution, factory: TransitionOracle
) -> None:
    """Check behavior condition 7 of A.1.5 against a concrete algorithm.

    Re-runs a fresh state machine per process, feeding it exactly the
    received sets recorded in the execution, and verifies that the machine
    would emit exactly the recorded outgoing message sets
    (``sent ∪ send_omitted``) each round and reach the recorded decisions.

    This is the mechanical statement that every recorded behavior is an
    honest run of the algorithm under some omission pattern — the defining
    property of the omission failure model (faulty processes "act according
    to their state machine at all times", §3).

    Raises:
        ModelViolation: if any recorded fragment is not what the algorithm
            would have produced.
    """
    from repro.sim.process import drive_replay  # local: avoid import cycle

    for pid in range(execution.n):
        behavior = execution.behaviors[pid]
        machine = factory(pid, behavior.proposal)
        drive_replay(machine, behavior)


def group_decisions(
    execution: Execution, group: Iterable[ProcessId]
) -> dict[ProcessId, Payload | None]:
    """Decisions of the processes in ``group``."""
    return {pid: execution.decision(pid) for pid in sorted(group)}


def unanimous_decision(
    execution: Execution, group: Iterable[ProcessId]
) -> Payload:
    """The unique decision of ``group``; raises if absent or split.

    Used where the paper argues "all processes from group A decide b"
    (Termination + Agreement give existence and uniqueness for correct
    groups).

    Raises:
        ModelViolation: if some process in the group is undecided or the
            group's decisions differ.
    """
    values: set[Payload] = set()
    for pid in sorted(group):
        decision = execution.decision(pid)
        if decision is None:
            raise ModelViolation(f"p{pid} is undecided")
        values.add(decision)
    if len(values) != 1:
        raise ModelViolation(f"group decisions differ: {sorted(map(repr, values))}")
    return next(iter(values))


def majority_decision(
    execution: Execution, group: Sequence[ProcessId]
) -> Payload | None:
    """The value decided by a strict majority of ``group``, if any.

    Lemma 2 guarantees a strict majority (> |Y|/2) of an isolated group
    decides the correct group's bit; this helper extracts that majority
    value, returning ``None`` when no value is decided by a strict
    majority.
    """
    counts: dict[Payload, int] = {}
    for pid in group:
        decision = execution.decision(pid)
        if decision is None:
            continue
        counts[decision] = counts.get(decision, 0) + 1
    for value, count in counts.items():
        if count * 2 > len(group):
            return value
    return None


@dataclass(frozen=True)
class ExecutionSummary:
    """A compact, printable summary of an execution (for reports/tables)."""

    n: int
    t: int
    rounds: int
    faulty: tuple[ProcessId, ...]
    message_complexity: int
    decisions: Mapping[ProcessId, Payload | None] = field(default_factory=dict)

    @classmethod
    def of(cls, execution: Execution) -> "ExecutionSummary":
        """Summarize ``execution``."""
        return cls(
            n=execution.n,
            t=execution.t,
            rounds=execution.rounds,
            faulty=tuple(sorted(execution.faulty)),
            message_complexity=execution.message_complexity(),
            decisions=execution.correct_decisions(),
        )

    def render(self) -> str:
        """A one-line human-readable rendering."""
        return (
            f"n={self.n} t={self.t} rounds={self.rounds} "
            f"faulty={list(self.faulty)} "
            f"msgs(correct)={self.message_complexity} "
            f"decisions={dict(self.decisions)}"
        )
