"""Per-process signing keys for the simulated authenticated setting (§5.1).

The paper's authenticated algorithms assume idealized digital signatures:
a process can sign its messages such that no other process can forge the
signature.  We realize the abstraction inside the closed simulation with a
:class:`KeyRegistry` holding one secret key per process; signatures are
keyed hashes (HMAC-style), so producing a valid signature for ``pid``
requires ``pid``'s secret.  The simulator hands the adversary only the keys
of *corrupted* processes, which is precisely the idealized-signature
guarantee: Byzantine processes can sign as themselves but never as a
correct process.

Keys are derived deterministically from a registry seed, keeping whole
executions reproducible (the determinism contract of the model).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import SignatureError
from repro.types import ProcessId


@dataclass(frozen=True, slots=True)
class SecretKey:
    """An opaque signing key for one process.

    Holding a :class:`SecretKey` is the capability to sign for its
    ``owner``; the registry never exposes keys of non-corrupted processes
    to adversary code.
    """

    owner: ProcessId
    material: bytes

    def __repr__(self) -> str:  # never leak key material in logs
        return f"SecretKey(owner={self.owner})"


class KeyRegistry:
    """Deterministic key generation and distribution for one system.

    Args:
        n: number of processes.
        seed: domain-separation seed; two registries with equal ``(n,
            seed)`` issue identical keys, so re-instantiated machines can
            re-derive their signatures (determinism of the model).
    """

    def __init__(self, n: int, seed: bytes | str = b"repro") -> None:
        if n < 1:
            raise ValueError(f"need at least one process, got n={n}")
        if isinstance(seed, str):
            seed = seed.encode()
        self._n = n
        self._seed = bytes(seed)

    @property
    def n(self) -> int:
        """The number of processes keys exist for."""
        return self._n

    def secret_key(self, pid: ProcessId) -> SecretKey:
        """The secret key of ``pid``.

        Trusted callers only: the simulator gives each honest machine its
        own key and gives the adversary the keys of corrupted processes.

        Raises:
            SignatureError: for unknown process ids.
        """
        if not 0 <= pid < self._n:
            raise SignatureError(f"no key for process {pid} (n={self._n})")
        material = hashlib.sha256(
            b"key|" + self._seed + b"|" + str(pid).encode()
        ).digest()
        return SecretKey(owner=pid, material=material)
