"""Deterministic process state machines (A.1.3).

The paper models each process as a deterministic state machine: the
transition function maps (state at the start of a round, messages received
in the round) to (state at the start of the next round, messages sent in the
next round).  :class:`Process` is the executable form of that machine:

* :meth:`Process.outgoing` is called once per round and returns the
  messages the process *attempts* to send (the adversary decides which are
  send-omitted, but only for corrupted processes);
* :meth:`Process.deliver` hands the process the payloads it receives (the
  adversary decides receive-omissions for corrupted processes);
* :meth:`Process.decide` records the (write-once) decision.

Determinism contract: implementations must derive everything from
``(pid, n, t, proposal)`` and the delivered messages — no randomness, no
wall-clock, no dict-ordering dependence (iterate in sorted order).  The
:func:`drive_replay` checker re-runs a machine against a recorded behavior
and verifies the record is exactly what the machine produces, enforcing the
contract mechanically (behavior condition 7 of A.1.5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Mapping

from repro.errors import ModelViolation, ProtocolViolation
from repro.sim.state import Behavior, StateSnapshot
from repro.types import Payload, ProcessId, Round, validate_process_id, validate_system_size


class Process(ABC):
    """A deterministic per-process state machine.

    Subclasses implement :meth:`outgoing` and :meth:`deliver`; the
    simulator drives the round loop and records fragments.
    """

    def __init__(
        self, pid: ProcessId, n: int, t: int, proposal: Payload
    ) -> None:
        validate_system_size(n, t)
        validate_process_id(pid, n)
        self.pid = pid
        self.n = n
        self.t = t
        self.proposal = proposal
        self._decision: Payload | None = None

    @abstractmethod
    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        """The messages this process attempts to send in ``round_``.

        Returns a mapping ``receiver -> payload``; at most one message per
        receiver, never to ``self.pid`` (the model's one-message-per-pair
        and no-self-message rules).  Called exactly once per round, before
        :meth:`deliver` for the same round.
        """

    @abstractmethod
    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        """Handle the messages received in ``round_``.

        ``received`` maps each sender to the payload that arrived from it
        this round (senders whose messages were omitted simply do not
        appear — a process cannot observe its own receive-omissions).
        """

    @property
    def decision(self) -> Payload | None:
        """The decided value, or ``None`` while undecided."""
        return self._decision

    def decide(self, value: Payload) -> None:
        """Record the decision; write-once (A.1.2/A.1.5 condition 6).

        Deciding the same value twice is a harmless no-op; deciding a
        different value is a protocol bug and raises.
        """
        if value is None:
            raise ProtocolViolation(
                f"p{self.pid} tried to decide None (reserved for undecided)"
            )
        if self._decision is not None and self._decision != value:
            raise ProtocolViolation(
                f"p{self.pid} changed decision "
                f"{self._decision!r} -> {value!r}"
            )
        self._decision = value

    def snapshot(self, round_: Round) -> StateSnapshot:
        """The observable state at the start of ``round_`` (A.1.2)."""
        return StateSnapshot(
            process=self.pid,
            round=round_,
            proposal=self.proposal,
            decision=self._decision,
        )

    def validate_outgoing(
        self, round_: Round, mapping: Mapping[ProcessId, Payload]
    ) -> dict[ProcessId, Payload]:
        """Validate an outgoing mapping against the model's rules."""
        for receiver in mapping:
            validate_process_id(receiver, self.n)
            if receiver == self.pid:
                raise ProtocolViolation(
                    f"p{self.pid} attempted a self-message in round {round_}"
                )
        return dict(sorted(mapping.items()))


ProcessFactory = Callable[[ProcessId, Payload], Process]
"""Builds a fresh machine for ``(pid, proposal)``; ``n``/``t`` are baked in.

Protocol modules provide factory constructors
(e.g. ``DolevStrongBroadcast.factory(n, t, sender=0)``) returning one of
these; the simulator, the reductions and the lower-bound driver all operate
on factories so they can re-instantiate and replay processes at will.
"""


def drive_replay(machine: Process, behavior: Behavior) -> None:
    """Re-run ``machine`` against ``behavior``'s received sets and compare.

    Checks, for every round ``j``:

    * the machine's decision at the start of ``j`` equals the recorded
      state's decision;
    * the machine's outgoing mapping equals the recorded
      ``sent ∪ send_omitted`` set (condition 7 of A.1.5 — the algorithm
      determines the *attempted* sends; the adversary only splits them).

    Finally compares the machine's decision after the last round with the
    recorded ``final_state``.

    ``outgoing`` and ``deliver`` run every round.  A round in which the
    machine sends nothing and nothing was recorded as sent needs no
    validation and no comparison, and one with nothing received
    delivers a fresh empty dict, so an idle round costs O(1).

    Raises:
        ModelViolation: on the first mismatch, meaning either the record
            was not produced by this algorithm, or the algorithm violates
            the determinism contract.
    """
    if machine.pid != behavior.process:
        raise ModelViolation(
            f"machine p{machine.pid} vs behavior of p{behavior.process}"
        )
    if machine.proposal != behavior.proposal:
        raise ModelViolation(
            f"p{machine.pid}: machine proposal {machine.proposal!r} vs "
            f"recorded {behavior.proposal!r}"
        )
    for round_ in range(1, behavior.rounds + 1):
        fragment = behavior.fragment(round_)
        if machine.decision != fragment.state.decision:
            raise ModelViolation(
                f"p{machine.pid} r{round_}: decision "
                f"{machine.decision!r} vs recorded "
                f"{fragment.state.decision!r}"
            )
        mapping = machine.outgoing(round_)
        if mapping or fragment.sent or fragment.send_omitted:
            produced = machine.validate_outgoing(round_, mapping)
            recorded = {
                message.receiver: message.payload
                for message in fragment.all_outgoing
            }
            if produced != recorded:
                raise ModelViolation(
                    f"p{machine.pid} r{round_}: outgoing mismatch; "
                    f"machine {produced!r} vs recorded {recorded!r}"
                )
        received = fragment.received
        machine.deliver(
            round_,
            {message.sender: message.payload for message in received}
            if received else {},
        )
    if machine.decision != behavior.final_state.decision:
        raise ModelViolation(
            f"p{machine.pid}: final decision {machine.decision!r} vs "
            f"recorded {behavior.final_state.decision!r}"
        )
