"""Simulated authentication substrate (idealized signatures, §5.1).

Provides deterministic per-process keys, HMAC-style unforgeable-in-sim
signatures, and Dolev–Strong signature chains.  The substitution rationale
(paper's idealized signatures → keyed hashes inside a closed simulation) is
documented in DESIGN.md §1.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".chains": ("SignedChain", "start_chain", "verify_chain"),
        ".keys": ("KeyRegistry", "SecretKey"),
        ".signatures": (
            "Signature", "SignatureScheme", "Signer", "canonical_bytes",
        ),
    },
)
