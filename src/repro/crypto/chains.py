"""Signature chains for Dolev–Strong style broadcast ([52] in the paper).

A *k-chain* on a value ``v`` for a designated sender ``s`` is a sequence of
signatures by ``k`` distinct processes, the first of which is ``s``, where
the ``i``-th signature covers the value together with the first ``i-1``
signatures.  The Dolev–Strong invariant is: a value accompanied by a valid
k-chain seen in round ``k`` was vouched for by at least ``k`` distinct
processes, at least one of which is correct once ``k > t`` — the basis of
its ``t+1``-round authenticated broadcast for any ``t < n``.

Chains are immutable; :meth:`SignedChain.extend` returns a longer chain.
Signing and verifying build the signed bytes with one encoder,
:func:`_signed_bytes`, which encodes the instance, the value and each
signature once: verifying a k-chain makes O(k) encoding calls, not one
full re-encoding of the prefix per signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.crypto.signatures import (
    Signature,
    SignatureScheme,
    Signer,
    canonical_bytes,
)
from repro.errors import SignatureError
from repro.types import ProcessId

_DOMAIN = "ds-chain"


def _chain_head(instance: Hashable, value: Hashable) -> bytes:
    """The encoded part of a chain's content that no signature changes."""
    return (
        canonical_bytes(_DOMAIN)
        + canonical_bytes(instance)
        + canonical_bytes(value)
    )


def _signed_bytes(head: bytes, prefix: Sequence[bytes]) -> bytes:
    """What the next signature of a chain signs.

    Equals ``canonical_bytes((_DOMAIN, instance, value, signatures))``
    for ``head = _chain_head(instance, value)`` and ``prefix`` the
    :func:`canonical_bytes` of each of the ``signatures`` so far, so no
    part of the chain is encoded twice.
    """
    return b"".join((b"T4:", head, b"T%d:" % len(prefix), *prefix))


@dataclass(frozen=True, slots=True)
class SignedChain:
    """A signature chain on ``value`` within a broadcast ``instance``.

    Attributes:
        instance: domain-separation tag of the broadcast instance (so
            chains cannot be replayed across parallel broadcasts, e.g. the
            n instances inside interactive consistency).
        value: the value being vouched for.
        signatures: the chain, in signing order.
    """

    instance: Hashable
    value: Hashable
    signatures: tuple[Signature, ...]

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def signers(self) -> tuple[ProcessId, ...]:
        """The ids of the chain's signers, in order."""
        return tuple(signature.signer for signature in self.signatures)

    def has_signer(self, pid: ProcessId) -> bool:
        """Whether ``pid`` already appears in the chain."""
        return any(
            signature.signer == pid for signature in self.signatures
        )

    def extend(self, signer: Signer) -> "SignedChain":
        """Append ``signer``'s signature over the current chain.

        Raises:
            ValueError: if the signer already appears (chains require
                distinct signers; re-signing adds no information).
        """
        if self.has_signer(signer.pid):
            raise ValueError(
                f"p{signer.pid} already signed this chain"
            )
        signature = signer.sign_bytes(
            _signed_bytes(
                _chain_head(self.instance, self.value),
                [canonical_bytes(signed) for signed in self.signatures],
            )
        )
        return SignedChain(
            instance=self.instance,
            value=self.value,
            signatures=self.signatures + (signature,),
        )


def start_chain(
    signer: Signer, instance: Hashable, value: Hashable
) -> SignedChain:
    """The 1-chain a designated sender creates over its value."""
    signature = signer.sign_bytes(
        _signed_bytes(_chain_head(instance, value), ())
    )
    return SignedChain(
        instance=instance, value=value, signatures=(signature,)
    )


def verify_chain(
    scheme: SignatureScheme,
    chain: SignedChain,
    designated_sender: ProcessId,
    minimum_length: int = 1,
) -> bool:
    """Verify a chain's structure and every signature in it.

    A valid chain (1) is at least ``minimum_length`` long, (2) starts with
    the designated sender's signature, (3) has pairwise-distinct signers,
    and (4) has every signature verify over the value plus the preceding
    prefix.  Returns ``False`` (never raises) on any defect, so Byzantine
    garbage degrades to "ignore".
    """
    signatures = chain.signatures
    if len(signatures) < max(1, minimum_length):
        return False
    if signatures[0].signer != designated_sender:
        return False
    signers = [signature.signer for signature in signatures]
    if len(signers) != len(set(signers)):
        return False
    prefix: list[bytes] = []
    try:
        head = _chain_head(chain.instance, chain.value)
        for index, signature in enumerate(signatures):
            if index:
                prefix.append(canonical_bytes(signatures[index - 1]))
            if not scheme.verify_bytes(signature, _signed_bytes(head, prefix)):
                return False
    except SignatureError:
        return False
    return True
