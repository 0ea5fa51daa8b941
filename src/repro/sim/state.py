"""States, fragments and behaviors of the execution model (Appendix A.1).

The paper formalizes what an omniscient observer records about a process:

* a **state** (A.1.2) holds the process id, the round it is starting, its
  proposal and its decision (``None`` until it decides);
* a **k-round fragment** (A.1.4) is the tuple
  ``(s, M_S, M_SO, M_R, M_RO)`` — the state at the start of round ``k``
  together with the messages the process (successfully) sent, send-omitted,
  received, and receive-omitted during round ``k``, subject to ten
  structural conditions;
* a **behavior** (A.1.5) is the sequence of a process's fragments over the
  rounds of an execution, subject to seven conditions tying consecutive
  fragments together (stable proposal, write-once decision, transitions
  produced by the algorithm's transition function).

These classes are *records*, not live state machines: the simulator in
:mod:`repro.sim.simulator` produces them, and the proof constructions in
:mod:`repro.omission` (``swap_omission``, ``merge``) rewrite them.  Every
structural condition from the paper is enforced mechanically, either eagerly
(cheap local conditions) or via :func:`check_fragment` /
:func:`check_behavior`.  Building a record counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.errors import ModelViolation
from repro.sim.message import Message
from repro.types import Payload, ProcessId, Round


@dataclass(frozen=True, slots=True)
class StateSnapshot:
    """The observable state of a process at the start of a round (A.1.2).

    Attributes:
        process: the process this state belongs to (``s.process``).
        round: the round the process is about to start (``s.round``).
        proposal: the process's proposal (``s.proposal``); fixed for the
            whole execution (behavior condition 5).
        decision: the decided value, or ``None`` (the paper's ``⊥``) if the
            process has not decided by the start of this round.
    """

    process: ProcessId
    round: Round
    proposal: Payload
    decision: Payload | None = None

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ValueError(f"rounds start at 1, got {self.round}")

    @property
    def decided(self) -> bool:
        """Whether the process has decided by the start of this round."""
        return self.decision is not None

    def advanced(self, decision: Payload | None) -> "StateSnapshot":
        """The state at the start of the next round.

        Implements the bookkeeping half of the transition function
        (A.1.3): same process and proposal, round incremented, and the
        decision is write-once — once set it can never change.

        Args:
            decision: the decision reported by the algorithm for the next
                round (ignored if this state already carries a decision).

        Raises:
            ModelViolation: if ``decision`` contradicts an earlier decision.
        """
        if self.decision is not None:
            if decision is not None and decision != self.decision:
                raise ModelViolation(
                    f"process {self.process} changed decision "
                    f"{self.decision!r} -> {decision!r}"
                )
            decision = self.decision
        return StateSnapshot(
            process=self.process,
            round=self.round + 1,
            proposal=self.proposal,
            decision=decision,
        )


@dataclass(frozen=True, slots=True)
class Fragment:
    """A k-round fragment of a process (A.1.4).

    ``state`` is the process's state at the start of round ``k``; the four
    message sets are the messages it sent, send-omitted, received and
    receive-omitted during round ``k``.  The ten conditions of A.1.4 are
    checked by :func:`check_fragment`.
    """

    state: StateSnapshot
    sent: frozenset[Message] = field(default_factory=frozenset)
    send_omitted: frozenset[Message] = field(default_factory=frozenset)
    received: frozenset[Message] = field(default_factory=frozenset)
    receive_omitted: frozenset[Message] = field(default_factory=frozenset)

    @property
    def process(self) -> ProcessId:
        """The process this fragment describes."""
        return self.state.process

    @property
    def round(self) -> Round:
        """The round this fragment describes."""
        return self.state.round

    @property
    def all_outgoing(self) -> frozenset[Message]:
        """Sent plus send-omitted messages — the algorithm's full output.

        The transition function of A.1.3 determines ``sent ∪ send_omitted``;
        the adversary chooses the split.
        """
        return self.sent | self.send_omitted

    @property
    def all_incoming(self) -> frozenset[Message]:
        """Received plus receive-omitted messages addressed to the process."""
        return self.received | self.receive_omitted

    @property
    def commits_fault(self) -> bool:
        """Whether this fragment contains an omission fault."""
        return bool(self.send_omitted) or bool(self.receive_omitted)

    def replacing(
        self,
        *,
        sent: frozenset[Message] | None = None,
        send_omitted: frozenset[Message] | None = None,
        received: frozenset[Message] | None = None,
        receive_omitted: frozenset[Message] | None = None,
    ) -> "Fragment":
        """A copy of this fragment with some message sets replaced.

        Mirrors the fragment-surgery steps of Algorithm 4 (swap_omission)
        and the lemmas 11/12 constructions; the result should be re-checked
        with :func:`check_fragment` by callers that alter invariants.
        """
        return replace(
            self,
            sent=self.sent if sent is None else sent,
            send_omitted=(
                self.send_omitted if send_omitted is None else send_omitted
            ),
            received=self.received if received is None else received,
            receive_omitted=(
                self.receive_omitted
                if receive_omitted is None
                else receive_omitted
            ),
        )


def check_fragment(fragment: Fragment) -> None:
    """Check the ten conditions of A.1.4 for ``fragment``.

    Conditions 1 and 2 hold by construction, and 3-10 speak only of the
    fragment's messages, so a fragment with no message in any of its
    four sets passes at once: an idle process-round costs O(1).

    Raises:
        ModelViolation: naming the first violated condition.
    """
    sent = fragment.sent
    send_omitted = fragment.send_omitted
    received = fragment.received
    receive_omitted = fragment.receive_omitted
    if not (sent or send_omitted or received or receive_omitted):
        return
    pid = fragment.process
    k = fragment.round
    outgoing = sent | send_omitted
    incoming = received | receive_omitted
    every = outgoing | incoming

    # Conditions 1 and 2 hold by construction (state carries pid and k).
    for message in every:  # condition 3
        if message.round != k:
            raise ModelViolation(
                f"fragment round {k} contains message of round "
                f"{message.round}: {message}"
            )
    if sent & send_omitted:  # condition 4
        raise ModelViolation(f"p{pid} r{k}: sent and send-omitted overlap")
    if received & receive_omitted:  # condition 5
        raise ModelViolation(
            f"p{pid} r{k}: received and receive-omitted overlap"
        )
    for message in outgoing:  # condition 6
        if message.sender != pid:
            raise ModelViolation(
                f"p{pid} r{k}: outgoing message with sender "
                f"{message.sender}: {message}"
            )
    for message in incoming:  # condition 7
        if message.receiver != pid:
            raise ModelViolation(
                f"p{pid} r{k}: incoming message with receiver "
                f"{message.receiver}: {message}"
            )
    for message in every:  # condition 8 (self-messages are also rejected
        # eagerly by Message.__post_init__; re-checked for completeness)
        if message.sender == message.receiver:
            raise ModelViolation(f"p{pid} r{k}: self-message {message}")
    receivers = [message.receiver for message in outgoing]  # condition 9
    if len(receivers) != len(set(receivers)):
        raise ModelViolation(
            f"p{pid} r{k}: two outgoing messages to one receiver"
        )
    senders = [message.sender for message in incoming]  # condition 10
    if len(senders) != len(set(senders)):
        raise ModelViolation(
            f"p{pid} r{k}: two incoming messages from one sender"
        )


@dataclass(frozen=True, slots=True)
class Behavior:
    """A k-round behavior of a process (A.1.5): its fragments in order.

    The accessor methods mirror the *Functions* table of Appendix A
    (``state``, ``sent``, ``send_omitted``, ``received``,
    ``receive_omitted`` and their ``all_*`` aggregates).  Rounds are 1-based
    throughout, matching the paper.

    Finite-horizon note: the paper works with infinite executions, in which
    any decision eventually shows up in a later state.  A finite record
    additionally carries ``final_state`` — the state at the start of round
    ``k+1`` produced by the last transition — so a decision taken *during*
    the final recorded round is still observable.
    """

    fragments: tuple[Fragment, ...]
    final_state: StateSnapshot

    def __post_init__(self) -> None:
        if not self.fragments:
            raise ValueError("a behavior has at least one fragment")

    @property
    def process(self) -> ProcessId:
        """The process exhibiting this behavior."""
        return self.fragments[0].process

    @property
    def rounds(self) -> int:
        """The number of rounds this behavior spans (the paper's ``k``)."""
        return len(self.fragments)

    @property
    def proposal(self) -> Payload:
        """The process's proposal (constant across rounds, condition 5)."""
        return self.fragments[0].state.proposal

    @property
    def decision(self) -> Payload | None:
        """The final decision, or ``None`` if the process never decided.

        A state carries the decision *at the start* of its round, so the
        decision is read off ``final_state`` (the state after the last
        recorded round), which reflects decisions taken in any round.
        """
        return self.final_state.decision

    @property
    def decision_round(self) -> Round | None:
        """The round *during* which the process decided, or ``None``.

        A decision first visible in the state at the start of round ``j+1``
        was taken during round ``j``.
        """
        for fragment in self.fragments:
            if fragment.state.decision is not None:
                return fragment.state.round - 1
        if self.final_state.decision is not None:
            return self.final_state.round - 1
        return None

    def fragment(self, round_: Round) -> Fragment:
        """The fragment of round ``round_`` (1-based)."""
        if not 1 <= round_ <= len(self.fragments):
            raise IndexError(
                f"round {round_} outside behavior of {len(self.fragments)}"
            )
        return self.fragments[round_ - 1]

    def state(self, round_: Round) -> StateSnapshot:
        """``state(B, j)``: the state at the start of round ``round_``."""
        return self.fragment(round_).state

    def sent(self, round_: Round) -> frozenset[Message]:
        """``sent(B, j)``: messages successfully sent in round ``round_``."""
        return self.fragment(round_).sent

    def send_omitted(self, round_: Round) -> frozenset[Message]:
        """``send_omitted(B, j)``: messages send-omitted in ``round_``."""
        return self.fragment(round_).send_omitted

    def received(self, round_: Round) -> frozenset[Message]:
        """``received(B, j)``: messages received in round ``round_``."""
        return self.fragment(round_).received

    def receive_omitted(self, round_: Round) -> frozenset[Message]:
        """``receive_omitted(B, j)``: messages receive-omitted in ``round_``."""
        return self.fragment(round_).receive_omitted

    def all_sent(self) -> frozenset[Message]:
        """``all_sent(B)``: every successfully sent message."""
        return frozenset().union(*(f.sent for f in self.fragments))

    def all_send_omitted(self) -> frozenset[Message]:
        """``all_send_omitted(B)``: every send-omitted message."""
        return frozenset().union(*(f.send_omitted for f in self.fragments))

    def all_receive_omitted(self) -> frozenset[Message]:
        """``all_receive_omitted(B)``: every receive-omitted message."""
        return frozenset().union(
            *(f.receive_omitted for f in self.fragments)
        )

    @property
    def commits_fault(self) -> bool:
        """Whether the process commits any omission fault in this behavior."""
        return any(fragment.commits_fault for fragment in self.fragments)

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self.fragments)

    def prefix(self, rounds: int) -> "Behavior":
        """The behavior truncated to its first ``rounds`` fragments."""
        if not 1 <= rounds <= len(self.fragments):
            raise IndexError(
                f"cannot take {rounds}-round prefix of "
                f"{len(self.fragments)}-round behavior"
            )
        if rounds == len(self.fragments):
            return self
        return Behavior(
            self.fragments[:rounds],
            final_state=self.fragments[rounds].state,
        )


def check_behavior(behavior: Behavior) -> None:
    """Check the structural behavior conditions of A.1.5 (1-6).

    Condition 7 (fragments chained by the algorithm's transition function)
    involves the algorithm itself and is checked by
    :func:`repro.sim.execution.check_transitions` given a process factory.

    Raises:
        ModelViolation: naming the first violated condition.
    """
    pid = behavior.process
    for fragment in behavior.fragments:
        check_fragment(fragment)  # condition 1
        if fragment.process != pid:
            raise ModelViolation(
                "behavior mixes fragments of processes "
                f"{pid} and {fragment.process}"
            )
    for index, fragment in enumerate(behavior.fragments):
        if fragment.round != index + 1:
            raise ModelViolation(
                f"p{pid}: fragment at position {index} has round "
                f"{fragment.round}, expected {index + 1}"
            )
    first = behavior.fragments[0].state
    if first.decision is not None:  # processes cannot start decided
        raise ModelViolation(f"p{pid} starts round 1 already decided")
    proposal = first.proposal  # condition 5
    decision: Payload | None = None  # condition 6 (write-once decision)
    states = [fragment.state for fragment in behavior.fragments]
    states.append(behavior.final_state)
    for state in states:
        if state.process != pid:
            raise ModelViolation(
                f"behavior of p{pid} carries state of p{state.process}"
            )
        if state.proposal != proposal:
            raise ModelViolation(
                f"p{pid}: proposal changed {proposal!r} -> "
                f"{state.proposal!r} at round {state.round}"
            )
        if decision is None:
            decision = state.decision
        elif state.decision != decision:
            raise ModelViolation(
                f"p{pid}: decision changed {decision!r} -> "
                f"{state.decision!r} at round {state.round}"
            )
    if behavior.final_state.round != behavior.rounds + 1:
        raise ModelViolation(
            f"p{pid}: final state has round {behavior.final_state.round}, "
            f"expected {behavior.rounds + 1}"
        )


def behaviors_indistinguishable(left: Behavior, right: Behavior) -> bool:
    """Whether two behaviors are indistinguishable *to the process* (§3).

    Two executions are indistinguishable to a process iff it has the same
    proposal and receives identical messages in every round.  Note that
    omitted messages do **not** count: a process is unaware of its own
    receive-omissions (§3, "corrupted processes are unaware that they are
    corrupted").

    Behaviors of different lengths are comparable only on their common
    prefix; we require equal lengths, which is what the constructions use.
    """
    if left.process != right.process:
        return False
    if left.proposal != right.proposal:
        return False
    if left.rounds != right.rounds:
        return False
    return all(
        left.received(j) == right.received(j)
        for j in range(1, left.rounds + 1)
    )
