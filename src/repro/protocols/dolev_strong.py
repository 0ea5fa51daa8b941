"""Dolev–Strong authenticated Byzantine broadcast ([52]; §5.1, §6).

The classic ``t+1``-round protocol solving Byzantine broadcast for *any*
``t < n`` in the authenticated setting:

* Round 1: the designated sender signs its value (a 1-chain) and sends it
  to everyone.
* Round ``r`` (``2 <= r <= t+1``): every process relays, with its own
  signature appended, each value it *accepted* in round ``r-1``; a value is
  accepted in round ``r`` iff it arrives with a valid chain of at least
  ``r`` distinct signatures starting with the sender's.  A process relays
  at most two distinct values — two are already proof of sender
  equivocation.
* After round ``t+1``: if exactly one value was accepted, decide it;
  otherwise decide the public default :data:`SENDER_FAULTY`.

The chain-length argument gives Agreement and Termination for any ``t <
n``; *Sender Validity* (a correct sender's value is decided) holds because
nobody can forge the sender's signature on a second value.

Message complexity is Θ(n²) per accepted value for correct relays — the
quadratic behaviour the Dolev–Reischuk bound says is unavoidable, measured
empirically in experiment E7.

A relayed chain is verified once per round, not once per receiver: the
verdict of ``verify_chain(scheme, chain, sender, minimum_length=round)``
depends on nothing a receiver owns, and a correct relay hands the *same*
chain object to all ``n - 1`` receivers.  So the processes of a spec
share a :class:`~repro.protocols.base.RoundMemo` keyed by ``(id(chain),
sender)`` — by identity, so an equal chain from a Byzantine relay is
verified on its own, and with the designated sender, so interactive
consistency's ``n`` sub-broadcasts can share one memo.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.crypto.chains import SignedChain, start_chain, verify_chain
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignatureScheme, Signer
from repro.protocols.base import ProtocolSpec, RoundMemo
from repro.sim.process import Process
from repro.types import Payload, ProcessId, Round

SENDER_FAULTY = "SENDER-FAULTY"
"""The public default decided when the sender provably misbehaved."""

_MAX_RELAYED_VALUES = 2


class DolevStrongProcess(Process):
    """One process of the Dolev–Strong broadcast.

    Args:
        pid: this process.
        n: system size.
        t: tolerated faults (any ``t < n``).
        proposal: this process's input; only the ``sender``'s is used.
        sender: the designated broadcaster.
        scheme: the signature scheme (public verification).
        signer: this process's signing capability.
        instance: domain-separation tag for chains (parallel broadcasts).
        memo: the :class:`~repro.protocols.base.RoundMemo` of chain
            verdicts shared by the spec's processes (a private one when
            omitted).
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        sender: ProcessId,
        scheme: SignatureScheme,
        signer: Signer,
        instance: Hashable = "ds",
        memo: RoundMemo | None = None,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        if signer.pid != pid:
            raise ValueError(
                f"p{pid} was handed the signer of p{signer.pid}"
            )
        self.sender = sender
        self.scheme = scheme
        self.signer = signer
        self.instance = instance
        self._memo = RoundMemo() if memo is None else memo
        self.extracted: dict[Hashable, SignedChain] = {}
        self._pending_relay: list[SignedChain] = []
        if pid == sender:
            self.extracted[proposal] = start_chain(
                signer, instance, proposal
            )

    @property
    def last_round(self) -> Round:
        """Round ``t+1``, after which the decision is taken."""
        return self.t + 1

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ == 1:
            if self.pid != self.sender:
                return {}
            chain = next(iter(self.extracted.values()))
            return self._broadcast((chain,))
        if round_ <= self.last_round and self._pending_relay:
            chains = tuple(
                sorted(
                    self._pending_relay,
                    key=lambda chain: repr(chain.value),
                )
            )
            self._pending_relay = []
            return self._broadcast(chains)
        return {}

    def _broadcast(
        self, chains: tuple[SignedChain, ...]
    ) -> dict[ProcessId, Payload]:
        return {
            other: chains for other in range(self.n) if other != self.pid
        }

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ <= self.last_round:
            for _, payload in sorted(received.items()):
                self._absorb(round_, payload)
        if round_ == self.last_round:
            self._decide_now()

    def _absorb(self, round_: Round, payload: Payload) -> None:
        """Accept valid, sufficiently long chains on new values."""
        if not isinstance(payload, tuple):
            return  # Byzantine garbage: ignore
        for chain in payload:
            if not isinstance(chain, SignedChain):
                continue
            if chain.instance != self.instance:
                continue
            if chain.value in self.extracted:
                continue
            if len(self.extracted) >= _MAX_RELAYED_VALUES:
                return  # two values already prove equivocation
            if not self._memo.get(
                round_, chain, self.sender,
                verify_chain, self.scheme, chain, self.sender, round_,
            ):
                continue
            self.extracted[chain.value] = chain
            if round_ < self.last_round and not chain.has_signer(
                self.pid
            ):
                self._pending_relay.append(chain.extend(self.signer))

    def _decide_now(self) -> None:
        if len(self.extracted) == 1:
            self.decide(next(iter(self.extracted.keys())))
        else:
            self.decide(SENDER_FAULTY)


def dolev_strong_spec(
    n: int,
    t: int,
    sender: ProcessId = 0,
    *,
    seed: bytes | str = b"repro-ds",
    instance: Hashable = "ds",
) -> ProtocolSpec:
    """A Dolev–Strong broadcast instance as a :class:`ProtocolSpec`.

    The key registry is derived from ``seed``; pass the same seed when an
    adversary needs corrupted processes' signers.
    """
    scheme = SignatureScheme(KeyRegistry(n, seed))
    memo = RoundMemo()

    def factory(pid: ProcessId, proposal: Payload) -> DolevStrongProcess:
        return DolevStrongProcess(
            pid,
            n,
            t,
            proposal,
            sender=sender,
            scheme=scheme,
            signer=scheme.signer_for(pid),
            instance=instance,
            memo=memo,
        )

    return ProtocolSpec(
        name=f"dolev-strong(sender={sender})",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=True,
    )


def scheme_for_spec(
    n: int, seed: bytes | str = b"repro-ds"
) -> SignatureScheme:
    """The signature scheme a :func:`dolev_strong_spec` with ``seed`` uses.

    Adversary strategies call this to obtain the signers of corrupted
    processes (and only those — handing out a correct process's signer
    would break the idealized-signature model).
    """
    return SignatureScheme(KeyRegistry(n, seed))
