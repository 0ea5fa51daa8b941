"""Interactive consistency (§5.2.2; [78], [52], [88]).

Processes agree on a full vector of ``n`` proposals such that the slot of
every correct process holds that process's actual proposal (*IC-Validity*,
expressible as ``IC-Validity(c) = {c' ∈ I_n | c' ⊇ c}`` — §5.2.2).  The
general solvability theorem rests on IC: any containment-condition problem
reduces to it (Algorithm 2).

Two implementations, matching the paper's citations:

* **Authenticated**, any ``t < n``: ``n`` parallel Dolev–Strong broadcasts
  ([52]), one per process, multiplexed over single physical messages.
  Slots of provably-faulty senders hold
  :data:`~repro.protocols.dolev_strong.SENDER_FAULTY`.
* **Unauthenticated**, ``n > 3t``: EIG in vector mode ([55], [78]) — see
  :func:`repro.protocols.eig.eig_vector_spec`.
"""

from __future__ import annotations

from typing import Mapping

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignatureScheme
from repro.protocols.base import ProtocolSpec, RoundMemo
from repro.protocols.dolev_strong import DolevStrongProcess
from repro.protocols.eig import eig_vector_spec
from repro.sim.process import Process
from repro.types import Payload, ProcessId, Round


class ParallelBroadcastIC(Process):
    """Authenticated IC: one Dolev–Strong instance per designated sender.

    Each physical message carries a tuple of ``(instance_index, payload)``
    pairs, one per sub-broadcast with traffic this round, so the
    multiplexing adds no extra messages — only larger payloads (the
    paper's metric is messages, §2).  The sub-broadcasts share one
    :class:`~repro.protocols.base.RoundMemo` of chain verdicts (``memo``,
    private when omitted); its key holds each one's designated sender.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        scheme: SignatureScheme,
        senders: tuple[ProcessId, ...] | None = None,
        memo: RoundMemo | None = None,
    ) -> None:
        super().__init__(pid, n, t, proposal)
        signer = scheme.signer_for(pid)
        memo = RoundMemo() if memo is None else memo
        self.senders: tuple[ProcessId, ...] = (
            tuple(range(n)) if senders is None else tuple(senders)
        )
        self._subs: list[DolevStrongProcess] = [
            DolevStrongProcess(
                pid,
                n,
                t,
                proposal,
                sender=sender,
                scheme=scheme,
                signer=signer,
                instance=("ic", sender),
                memo=memo,
            )
            for sender in self.senders
        ]

    @property
    def last_round(self) -> Round:
        """All sub-broadcasts decide after round ``t+1``."""
        return self.t + 1

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        merged: dict[ProcessId, list[tuple[int, Payload]]] = {}
        for index, sub in enumerate(self._subs):
            for receiver, payload in sub.outgoing(round_).items():
                merged.setdefault(receiver, []).append((index, payload))
        return {
            receiver: tuple(parts)
            for receiver, parts in sorted(merged.items())
        }

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        per_sub: list[dict[ProcessId, Payload]] = [
            {} for _ in self._subs
        ]
        for sender, payload in sorted(received.items()):
            if not isinstance(payload, tuple):
                continue
            for part in payload:
                if not (isinstance(part, tuple) and len(part) == 2):
                    continue
                index, sub_payload = part
                if (
                    isinstance(index, int)
                    and 0 <= index < len(per_sub)
                    and sender not in per_sub[index]
                ):
                    per_sub[index][sender] = sub_payload
        for index, sub in enumerate(self._subs):
            sub.deliver(round_, per_sub[index])
        if round_ >= self.last_round and self.decision is None:
            decisions = [sub.decision for sub in self._subs]
            if all(decision is not None for decision in decisions):
                self.decide(self.combine(tuple(decisions)))

    def combine(self, decisions: tuple[Payload, ...]) -> Payload:
        """Fold the per-sender broadcast outputs into the decision.

        The IC decision is the vector itself; subclasses (e.g. the
        external-validity protocol) override this to pick a value out of
        the vector.  ``decisions[i]`` is the output of the broadcast whose
        designated sender is ``self.senders[i]``.
        """
        return decisions


def authenticated_ic_spec(
    n: int, t: int, *, seed: bytes | str = b"repro-ic"
) -> ProtocolSpec:
    """Authenticated interactive consistency for any ``t < n`` ([52])."""
    scheme = SignatureScheme(KeyRegistry(n, seed))
    memo = RoundMemo()

    def factory(pid: ProcessId, proposal: Payload) -> ParallelBroadcastIC:
        return ParallelBroadcastIC(
            pid, n, t, proposal, scheme=scheme, memo=memo
        )

    return ProtocolSpec(
        name="ic-parallel-dolev-strong",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=True,
    )


def unauthenticated_ic_spec(
    n: int, t: int, default: Payload = 0
) -> ProtocolSpec:
    """Unauthenticated interactive consistency for ``n > 3t`` (EIG)."""
    return eig_vector_spec(n, t, default=default).renamed("ic-eig")


def ic_spec(
    n: int,
    t: int,
    *,
    authenticated: bool,
    default: Payload = 0,
    seed: bytes | str = b"repro-ic",
) -> ProtocolSpec:
    """The IC instance matching the setting of Theorem 4's two branches."""
    if authenticated:
        return authenticated_ic_spec(n, t, seed=seed)
    return unauthenticated_ic_spec(n, t, default=default)
