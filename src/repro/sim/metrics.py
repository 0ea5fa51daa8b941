"""Communication-complexity accounting (§2, "Message complexity").

The paper's metric is the number of messages sent by correct processes over
the whole execution — including messages sent after all correct processes
have decided.  :class:`ComplexityReport` computes that count plus auxiliary
views (per-round, per-sender, payload-size totals) used by the experiment
reports.  :class:`StreamingComplexity` produces the same report
incrementally as a :class:`~repro.sim.engine.RoundObserver`, so live
engine runs need no second pass over the recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.sim.engine import RoundEvent, RoundObserver
from repro.sim.execution import Execution
from repro.sim.message import payload_size
from repro.types import ProcessId, Round


@dataclass(frozen=True)
class ComplexityReport:
    """Message-complexity breakdown of one execution.

    Attributes:
        correct_messages: the paper's message complexity — messages sent by
            correct processes.
        total_messages: messages sent by all processes (informational; the
            adversary can always inflate this, so bounds never use it).
        per_round: correct-sender message counts per round.
        per_sender: message counts per correct sender.
        payload_units: crude total payload size (abstract units) of
            correct-sender messages; informational.
    """

    correct_messages: int
    total_messages: int
    per_round: Mapping[Round, int] = field(default_factory=dict)
    per_sender: Mapping[ProcessId, int] = field(default_factory=dict)
    payload_units: int = 0

    @classmethod
    def of(cls, execution: Execution) -> "ComplexityReport":
        """Measure ``execution``."""
        per_round: dict[Round, int] = {}
        per_sender: dict[ProcessId, int] = {}
        payload_units = 0
        correct = execution.correct
        correct_messages = 0
        total_messages = 0
        for pid in range(execution.n):
            behavior = execution.behavior(pid)
            sent_count = len(behavior.all_sent())
            total_messages += sent_count
            if pid not in correct:
                continue
            correct_messages += sent_count
            per_sender[pid] = sent_count
            for round_ in range(1, behavior.rounds + 1):
                round_sent = behavior.sent(round_)
                if round_sent:
                    per_round[round_] = per_round.get(round_, 0) + len(
                        round_sent
                    )
                payload_units += sum(
                    payload_size(message.payload)
                    for message in round_sent
                )
        return cls(
            correct_messages=correct_messages,
            total_messages=total_messages,
            per_round=per_round,
            per_sender=per_sender,
            payload_units=payload_units,
        )


class StreamingComplexity(RoundObserver):
    """Incremental message-complexity accounting for live engine runs.

    Tracks per-sender-per-round sent counts and payload sizes for *all*
    processes while the run unfolds, then filters by the adversary's
    final corruption set when the report is assembled — necessary
    because an adaptive adversary may corrupt a process *after* it has
    sent (§2 charges only processes outside the final faulty set ``F``).
    The produced report equals ``ComplexityReport.of`` on the recorded
    trace (asserted by the test-suite) without re-walking it.
    """

    def __init__(self) -> None:
        self._counts: dict[ProcessId, dict[Round, int]] = {}
        self._payload: dict[ProcessId, int] = {}
        self._corrupted: frozenset[ProcessId] = frozenset()
        self._n = 0

    def on_run_start(self, config, machines, adversary) -> None:
        self._n = config.n
        self._counts = {pid: {} for pid in range(config.n)}
        self._payload = {pid: 0 for pid in range(config.n)}
        self._corrupted = adversary.corrupted

    def on_round(self, event: RoundEvent) -> None:
        for pid, fragment in enumerate(event.fragments):
            if fragment.sent:
                self._counts[pid][event.round] = len(fragment.sent)
                self._payload[pid] += sum(
                    payload_size(message.payload)
                    for message in fragment.sent
                )
        self._corrupted = event.corrupted

    def on_run_end(self, final_states, corrupted) -> None:
        self._corrupted = corrupted

    @property
    def correct_messages(self) -> int:
        """The paper's metric so far: messages sent by correct processes."""
        return sum(
            count
            for pid, rounds in self._counts.items()
            if pid not in self._corrupted
            for count in rounds.values()
        )

    def report(self) -> ComplexityReport:
        """Assemble the :class:`ComplexityReport` of the observed run."""
        per_round: dict[Round, int] = {}
        per_sender: dict[ProcessId, int] = {}
        payload_units = 0
        correct_messages = 0
        total_messages = 0
        for pid in range(self._n):
            sent_count = sum(self._counts[pid].values())
            total_messages += sent_count
            if pid in self._corrupted:
                continue
            correct_messages += sent_count
            per_sender[pid] = sent_count
            payload_units += self._payload[pid]
            for round_, count in self._counts[pid].items():
                per_round[round_] = per_round.get(round_, 0) + count
        return ComplexityReport(
            correct_messages=correct_messages,
            total_messages=total_messages,
            per_round=per_round,
            per_sender=per_sender,
            payload_units=payload_units,
        )


def count_signatures(payload: object) -> int:
    """The number of signature objects embedded in a payload.

    Walks tuples, frozensets, Dolev–Strong chains and transaction-like
    objects.  Used for the §6 Dolev–Reischuk signature metric: in the
    authenticated setting, deterministic broadcast must exchange
    ``Ω(nt)`` *signatures*, a finer-grained cousin of the message bound.
    """
    from repro.crypto.chains import SignedChain
    from repro.crypto.signatures import Signature

    if isinstance(payload, Signature):
        return 1
    if isinstance(payload, SignedChain):
        return len(payload.signatures) + count_signatures(payload.value)
    if isinstance(payload, (tuple, frozenset)):
        return sum(count_signatures(element) for element in payload)
    content_method = getattr(payload, "canonical_content", None)
    if callable(content_method):
        return count_signatures(content_method())
    return 0


def signature_complexity(execution: Execution) -> int:
    """Signatures carried by messages of correct senders (§6, [51]).

    Counts every signature in every successfully sent message of a
    correct process, with chain multiplicity: relaying a k-chain moves
    ``k`` signatures.
    """
    total = 0
    for pid in execution.correct:
        behavior = execution.behavior(pid)
        for round_ in range(1, behavior.rounds + 1):
            for message in behavior.sent(round_):
                total += count_signatures(message.payload)
    return total


def dolev_reischuk_signature_floor(n: int, t: int) -> float:
    """The [51] signature floor ``Ω(nt)`` (constant set to 1)."""
    return float(n * t)


def weak_consensus_floor(t: int) -> float:
    """The paper's concrete weak-consensus floor ``t^2 / 32`` (Lemma 1).

    Same formula as
    :func:`repro.lowerbound.bound.weak_consensus_floor`; duplicated here
    so the metrics layer stays import-cycle-free.
    """
    return t * t / 32


def dolev_reischuk_floor(t: int) -> float:
    """Deprecated name for :func:`weak_consensus_floor`.

    (The actual Dolev–Reischuk floors, which depend on ``n`` and the
    authentication setting, live in
    :func:`repro.lowerbound.bound.dolev_reischuk_floor`.)
    """
    return weak_consensus_floor(t)


def meets_lower_bound(execution: Execution) -> bool:
    """Whether the execution's correct-message count reaches ``t²/32``.

    A *correct* weak-consensus algorithm must have worst-case complexity at
    least the floor; a single execution below the floor does not contradict
    the bound (the bound is a max over executions), but the specific
    adversarial executions built by :mod:`repro.lowerbound` are exactly the
    ones the argument applies to.
    """
    return execution.message_complexity() >= weak_consensus_floor(
        execution.t
    )


def quadratic_ratio(messages: int, t: int) -> float:
    """``messages / t²`` — the constant factor in front of the quadratic.

    Used by the scaling experiments: for a Θ(t²)-message protocol this ratio
    stabilizes as ``t`` grows; for sub-quadratic cheaters it tends to 0.
    """
    if t == 0:
        return float("inf") if messages else 0.0
    return messages / float(t * t)
