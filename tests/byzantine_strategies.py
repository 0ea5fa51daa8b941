"""Reusable Byzantine machine strategies (§2: arbitrary deviation).

Each strategy is a callable ``(pid, honest_factory, proposal) -> Process``
suitable for :class:`repro.sim.adversary.ByzantineAdversary`.  They cover
the classic attack shapes the protocol tests and the examples exercise
(no experiment or CLI command runs a Byzantine machine, so the library
lives with the tests):

* :func:`mute` — send nothing, ever.
* :func:`crash_at` — behave honestly, then stop mid-execution.
* :func:`two_faced` — run two honest machines with different proposals and
  show each half of the system a different face (equivocation without
  breaking any signature — the honest machines sign only as this process).
* :func:`equivocating_sender` — a Dolev–Strong sender signing two values.
* :func:`garbage` — deterministic junk payloads to everyone.

Strategies never receive another process's signing key, so the idealized-
signature boundary (§5.1) is respected by construction.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.crypto.chains import start_chain
from repro.crypto.signatures import SignatureScheme
from repro.sim.process import Process, ProcessFactory
from repro.types import Payload, ProcessId, Round

Strategy = Callable[[ProcessId, ProcessFactory, Payload], Process]


def mute() -> Strategy:
    """A machine that sends nothing and never decides."""

    def build(
        pid: ProcessId, honest_factory: ProcessFactory, proposal: Payload
    ) -> Process:
        honest = honest_factory(pid, proposal)

        class _Mute(Process):
            def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
                return {}

            def deliver(
                self,
                round_: Round,
                received: Mapping[ProcessId, Payload],
            ) -> None:
                return None

        return _Mute(pid, honest.n, honest.t, proposal)

    return build


def crash_at(crash_round: Round) -> Strategy:
    """Honest behaviour through round ``crash_round - 1``, then silence."""

    def build(
        pid: ProcessId, honest_factory: ProcessFactory, proposal: Payload
    ) -> Process:
        honest = honest_factory(pid, proposal)

        class _Crashing(Process):
            def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
                if round_ >= crash_round:
                    return {}
                return honest.outgoing(round_)

            def deliver(
                self,
                round_: Round,
                received: Mapping[ProcessId, Payload],
            ) -> None:
                if round_ < crash_round:
                    honest.deliver(round_, received)

        return _Crashing(pid, honest.n, honest.t, proposal)

    return build


def two_faced(
    proposal_low: Payload, proposal_high: Payload
) -> Strategy:
    """Show low-id processes one honest run and high-id processes another.

    Runs two honest machines side by side, one proposing
    ``proposal_low`` and one ``proposal_high``; messages to the lower half
    of the id space come from the first, the rest from the second.  Each
    machine is fed only the messages "its" half sent back, keeping both
    internally consistent — the strongest splitting attack expressible
    without forging signatures.
    """

    def build(
        pid: ProcessId, honest_factory: ProcessFactory, proposal: Payload
    ) -> Process:
        low = honest_factory(pid, proposal_low)
        high = honest_factory(pid, proposal_high)
        boundary = low.n // 2

        class _TwoFaced(Process):
            def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
                merged: dict[ProcessId, Payload] = {}
                for receiver, payload in low.outgoing(round_).items():
                    if receiver < boundary:
                        merged[receiver] = payload
                for receiver, payload in high.outgoing(round_).items():
                    if receiver >= boundary:
                        merged[receiver] = payload
                return merged

            def deliver(
                self,
                round_: Round,
                received: Mapping[ProcessId, Payload],
            ) -> None:
                low.deliver(
                    round_,
                    {
                        sender: payload
                        for sender, payload in received.items()
                        if sender < boundary
                    },
                )
                high.deliver(
                    round_,
                    {
                        sender: payload
                        for sender, payload in received.items()
                        if sender >= boundary
                    },
                )

        return _TwoFaced(pid, low.n, low.t, proposal)

    return build


def equivocating_sender(
    scheme: SignatureScheme,
    value_low: Hashable,
    value_high: Hashable,
    instance: Hashable = "ds",
) -> Strategy:
    """A Dolev–Strong designated sender signing *two* different values.

    Sends a 1-chain on ``value_low`` to the lower half of the id space and
    a 1-chain on ``value_high`` to the upper half in round 1, then goes
    silent.  Dolev–Strong must converge on the public default
    (:data:`~repro.protocols.dolev_strong.SENDER_FAULTY`) or on one value
    at *all* correct processes — never split (tested in the suite).
    """

    def build(
        pid: ProcessId, honest_factory: ProcessFactory, proposal: Payload
    ) -> Process:
        honest = honest_factory(pid, proposal)
        signer = scheme.signer_for(pid)  # own key only: no forgery
        chain_low = start_chain(signer, instance, value_low)
        chain_high = start_chain(signer, instance, value_high)
        boundary = honest.n // 2

        class _Equivocator(Process):
            def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
                if round_ != 1:
                    return {}
                return {
                    receiver: (
                        (chain_low,)
                        if receiver < boundary
                        else (chain_high,)
                    )
                    for receiver in range(self.n)
                    if receiver != self.pid
                }

            def deliver(
                self,
                round_: Round,
                received: Mapping[ProcessId, Payload],
            ) -> None:
                return None

        return _Equivocator(pid, honest.n, honest.t, proposal)

    return build


def garbage(marker: Hashable = "garbage") -> Strategy:
    """Deterministic junk to everyone every round (parser fuzzing)."""

    def build(
        pid: ProcessId, honest_factory: ProcessFactory, proposal: Payload
    ) -> Process:
        honest = honest_factory(pid, proposal)

        class _Garbage(Process):
            def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
                payload = (marker, self.pid, round_)
                return {
                    receiver: payload
                    for receiver in range(self.n)
                    if receiver != self.pid
                }

            def deliver(
                self,
                round_: Round,
                received: Mapping[ProcessId, Payload],
            ) -> None:
                return None

        return _Garbage(pid, honest.n, honest.t, proposal)

    return build
