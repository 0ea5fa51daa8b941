"""Simulated unforgeable signatures (§5.1, authenticated algorithms).

A :class:`Signature` is a keyed hash over a canonical encoding of the signed
content, bound to the signer's id.  Verification recomputes the tag from the
signer's key; within the simulation, code without the signer's
:class:`~repro.crypto.keys.SecretKey` cannot produce a verifying tag — the
idealized-signature abstraction ([30] in the paper).

Canonical encoding: the signed content must be built from hashable,
deterministic primitives (ints, strings, bytes, tuples, frozensets, and
signatures themselves); :func:`canonical_bytes` serializes them
deterministically, including across processes.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Hashable

from repro.crypto.keys import KeyRegistry, SecretKey
from repro.errors import ReproError, SignatureError
from repro.types import ProcessId


def _set_element_order(value: frozenset) -> list:
    """Frozenset elements in the library's one canonical set order.

    Delegates to the :mod:`repro.sim.serialization` policy — elements
    sort by :func:`~repro.sim.serialization.canonical_json` of their
    :func:`~repro.sim.serialization.encode_payload` encoding — so the
    signing layer and the artifact codec canonicalize unordered
    collections identically (one sort-key policy, one frozenset
    canonicalization).  Values outside the codec's closed type set
    (``canonical_content`` extension objects) fall back to sorting by
    their own canonical byte encoding, which is equally
    hash-seed-independent.
    """
    from repro.sim.serialization import canonical_json, encode_payload

    def sort_key(element: Hashable) -> str:
        try:
            encoded = encode_payload(element)
        except ReproError:
            encoded = {
                "k": "opaque",
                "v": canonical_bytes(element).hex(),
            }
        return canonical_json(encoded)

    return sorted(value, key=sort_key)


def canonical_bytes(value: Hashable) -> bytes:
    """Deterministically serialize a signable value.

    Supports ``None``, bools, ints, strings, bytes, tuples, frozensets and
    :class:`Signature` objects (so signature chains can be counter-signed).
    Frozensets are serialized in the library's one canonical set order
    (the :mod:`repro.sim.serialization` sort-key policy, see
    :func:`_set_element_order`), making the encoding independent of hash
    randomization — and identical in element order to the serialization
    codec's ``fset`` records.

    Type-strictness note: the encoding distinguishes ``True`` from ``1``
    and ``False`` from ``0`` (booleans get their own tag) — safer for
    signatures than inheriting Python's numeric-equality collapse.  The
    flip side: two frozensets that Python deems *equal* but that were
    built with a bool in one and the equal int in the other (e.g.
    ``frozenset({False})`` vs ``frozenset({0})``) encode differently;
    signable content should not mix bools and equal ints inside sets.

    Raises:
        SignatureError: for unsupported value types.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):  # bool before int: bool is an int subclass
        return b"B" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"I" + str(value).encode()
    if isinstance(value, str):
        encoded = value.encode()
        return b"S" + str(len(encoded)).encode() + b":" + encoded
    if isinstance(value, (bytes, bytearray)):
        return b"Y" + str(len(value)).encode() + b":" + bytes(value)
    if isinstance(value, Signature):
        return (
            b"G"
            + canonical_bytes(value.signer)
            + value.tag
        )
    if isinstance(value, tuple):
        parts = b"".join(canonical_bytes(element) for element in value)
        return b"T" + str(len(value)).encode() + b":" + parts
    if isinstance(value, frozenset):
        encoded = [
            canonical_bytes(element)
            for element in _set_element_order(value)
        ]
        return b"F" + str(len(encoded)).encode() + b":" + b"".join(encoded)
    content_method = getattr(value, "canonical_content", None)
    if callable(content_method):
        # Extension point: domain objects (e.g. transactions) expose their
        # signable structure without this module depending on them.
        return b"O" + canonical_bytes(content_method())
    raise SignatureError(
        f"cannot canonically encode value of type {type(value).__name__}"
    )


@dataclass(frozen=True, slots=True)
class Signature:
    """A signature of ``signer`` over some content.

    The content itself is not stored (the protocol carries it separately);
    :meth:`SignatureScheme.verify` recomputes the expected tag from the
    claimed content.
    """

    signer: ProcessId
    tag: bytes

    def __repr__(self) -> str:
        return f"Signature(signer={self.signer}, tag={self.tag[:4].hex()}…)"


class SignatureScheme:
    """Sign/verify front-end over a :class:`KeyRegistry`.

    Verification needs no secrets (the registry re-derives keys), so every
    process may hold the scheme; *signing* requires presenting the signer's
    secret key, which honest machines only hold for themselves.
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry

    def sign(self, key: SecretKey, content: Hashable) -> Signature:
        """Sign ``content`` with ``key``.

        Raises:
            SignatureError: if the content cannot be canonically encoded.
        """
        return self.sign_bytes(key, canonical_bytes(content))

    def sign_bytes(self, key: SecretKey, encoded: bytes) -> Signature:
        """Sign content given as its :func:`canonical_bytes` encoding."""
        tag = hmac.new(key.material, encoded, hashlib.sha256).digest()
        return Signature(signer=key.owner, tag=tag)

    def verify(self, signature: Signature, content: Hashable) -> bool:
        """Whether ``signature`` is a valid signature of its claimed signer
        over ``content``.

        Structural problems (unknown signer id, unencodable content) are
        treated as verification failure, matching how a real verifier
        rejects malformed inputs rather than crashing.
        """
        try:
            key = self._registry.secret_key(signature.signer)
            encoded = canonical_bytes(content)
        except SignatureError:
            return False
        return self._matches(signature, key, encoded)

    def verify_bytes(self, signature: Signature, encoded: bytes) -> bool:
        """:meth:`verify` for content given as its canonical encoding."""
        try:
            key = self._registry.secret_key(signature.signer)
        except SignatureError:
            return False
        return self._matches(signature, key, encoded)

    @staticmethod
    def _matches(signature: Signature, key: SecretKey, encoded: bytes) -> bool:
        expected = hmac.new(key.material, encoded, hashlib.sha256).digest()
        return hmac.compare_digest(signature.tag, expected)

    def signer_for(self, pid: ProcessId) -> "Signer":
        """A signing capability for ``pid`` (trusted distribution point)."""
        return Signer(self, self._registry.secret_key(pid))


class Signer:
    """The signing capability of a single process.

    Honest machines receive exactly one :class:`Signer` — their own.  A
    Byzantine adversary receives the signers of corrupted processes only.
    """

    def __init__(self, scheme: SignatureScheme, key: SecretKey) -> None:
        self._scheme = scheme
        self._key = key

    @property
    def pid(self) -> ProcessId:
        """The process this capability signs for."""
        return self._key.owner

    def sign(self, content: Hashable) -> Signature:
        """Sign ``content`` as this process."""
        return self._scheme.sign(self._key, content)

    def sign_bytes(self, encoded: bytes) -> Signature:
        """Sign content given as its :func:`canonical_bytes` encoding."""
        return self._scheme.sign_bytes(self._key, encoded)

    def verify(self, signature: Signature, content: Hashable) -> bool:
        """Verify an arbitrary signature (verification is public)."""
        return self._scheme.verify(signature, content)
