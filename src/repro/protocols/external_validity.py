"""Byzantine agreement with External Validity (§4.3, Corollary 1).

Blockchain-style agreement: the decided value must satisfy a globally
verifiable predicate ``valid(·)`` — here, "a transaction correctly signed
by its issuing client".  The §4.3 discussion notes that the input-
configuration formalism would classify this as trivial, yet no process can
decide a transaction it has never seen; Corollary 1 still applies to any
such algorithm with two fully-correct executions deciding differently —
which this one has (decide-what-leader-0-proposed when leader 0 is
correct), so the ``t²/32`` bound binds (experiment E8).

Protocol: ``t+1`` parallel Dolev–Strong broadcasts, one per process in
``0..t``; decide the output of the lowest-index broadcast that is a valid
transaction.  Per-instance agreement makes the choice common; among
``t+1`` designated senders at least one is correct and broadcasts its own
(valid) proposal, giving Termination with a valid decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, SignatureScheme
from repro.protocols.base import ProtocolSpec, RoundMemo
from repro.protocols.interactive_consistency import ParallelBroadcastIC
from repro.types import Payload, ProcessId

Validator = Callable[[Payload], bool]
"""The globally verifiable predicate ``valid(·)`` of External Validity."""


@dataclass(frozen=True, slots=True)
class Transaction:
    """A client-signed transaction — the blockchain workload of §4.3.

    Attributes:
        client: issuing client's id (clients have their own key space,
            distinct from process keys).
        body: arbitrary transaction content.
        signature: the client's signature over ``(client, body)``.
    """

    client: int
    body: Hashable
    signature: Signature

    def signed_content(self) -> tuple:
        """The content the client's signature must cover."""
        return ("tx", self.client, self.body)

    def canonical_content(self) -> tuple:
        """Canonical-encoding hook (see
        :func:`repro.crypto.signatures.canonical_bytes`) so transactions
        can themselves be signed over, e.g. inside broadcast chains."""
        return ("tx-object", self.client, self.body, self.signature)


class ClientPool:
    """Key management for transaction-issuing clients.

    A separate :class:`KeyRegistry` namespace: client ``c`` signs with key
    ``c`` of the pool's registry.  The resulting
    :meth:`validator` is the globally verifiable predicate.
    """

    def __init__(
        self, clients: int, seed: bytes | str = b"repro-clients"
    ) -> None:
        self._scheme = SignatureScheme(KeyRegistry(clients, seed))
        self.clients = clients

    def issue(self, client: int, body: Hashable) -> Transaction:
        """A correctly signed transaction from ``client``."""
        signer = self._scheme.signer_for(client)
        signature = signer.sign(("tx", client, body))
        return Transaction(client=client, body=body, signature=signature)

    def forge(self, client: int, body: Hashable) -> Transaction:
        """A *badly* signed transaction (wrong content under the tag).

        Used by tests and adversaries: it fails :meth:`validator`.
        """
        signer = self._scheme.signer_for(client)
        signature = signer.sign(("not-a-tx", client, body))
        return Transaction(client=client, body=body, signature=signature)

    def validator(self) -> Validator:
        """The predicate ``valid(v)``: v is a correctly signed transaction."""

        def valid(value: Payload) -> bool:
            return isinstance(
                value, Transaction
            ) and self._scheme.verify(
                value.signature, value.signed_content()
            )

        return valid


class ExternalValidityAgreement(ParallelBroadcastIC):
    """First-valid-of-(t+1)-broadcasts agreement (see module docstring)."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        scheme: SignatureScheme,
        validator: Validator,
        fallback: Payload,
        memo: RoundMemo | None = None,
    ) -> None:
        super().__init__(
            pid,
            n,
            t,
            proposal,
            scheme=scheme,
            senders=tuple(range(t + 1)),
            memo=memo,
        )
        self.validator = validator
        self.fallback = fallback

    def combine(self, decisions: tuple[Payload, ...]) -> Payload:
        for decision in decisions:
            if self.validator(decision):
                return decision
        # Reachable only if every designated sender 0..t is faulty or
        # proposed an invalid value — impossible when correct processes
        # propose valid transactions, but a total function is safer than a
        # crash on adversarial inputs.
        return self.fallback


def external_validity_spec(
    n: int,
    t: int,
    validator: Validator,
    fallback: Payload,
    *,
    seed: bytes | str = b"repro-ev",
) -> ProtocolSpec:
    """External-validity agreement as a :class:`ProtocolSpec`.

    Args:
        validator: the globally verifiable predicate.
        fallback: decided only if all ``t+1`` designated broadcasts yield
            invalid values (cannot happen with correct proposals; see
            :meth:`ExternalValidityAgreement.combine`).
    """
    scheme = SignatureScheme(KeyRegistry(n, seed))
    memo = RoundMemo()

    def factory(
        pid: ProcessId, proposal: Payload
    ) -> ExternalValidityAgreement:
        return ExternalValidityAgreement(
            pid,
            n,
            t,
            proposal,
            scheme=scheme,
            validator=validator,
            fallback=fallback,
            memo=memo,
        )

    return ProtocolSpec(
        name="external-validity",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=True,
    )
