"""Signature counting for the §6 Dolev–Reischuk signature floor ([51]).

In the authenticated setting, deterministic broadcast must exchange
``Ω(nt)`` *signatures*, a finer-grained cousin of the message bound.
The floor is related work, not a claim of the paper, so the counter
lives with the tests that check Dolev–Strong against it
(``tests/lowerbound/test_ablations.py``, A3).
"""

from repro.crypto.chains import SignedChain
from repro.crypto.signatures import Signature


def count_signatures(payload: object) -> int:
    """The number of signature objects embedded in a payload.

    Walks tuples, frozensets, Dolev–Strong chains and transaction-like
    objects (anything with a ``canonical_content()``).
    """
    if isinstance(payload, Signature):
        return 1
    if isinstance(payload, SignedChain):
        return len(payload.signatures) + count_signatures(payload.value)
    if isinstance(payload, (tuple, frozenset)):
        return sum(count_signatures(element) for element in payload)
    content_method = getattr(payload, "canonical_content", None)
    if callable(content_method):
        return count_signatures(content_method())
    return 0


def signature_complexity(execution) -> int:
    """Signatures carried by messages of correct senders.

    Counts every signature in every sent message of a correct process,
    with chain multiplicity: relaying a k-chain moves ``k`` signatures.
    """
    return sum(
        count_signatures(message.payload)
        for pid in execution.correct
        for round_ in range(1, execution.behavior(pid).rounds + 1)
        for message in execution.behavior(pid).sent(round_)
    )


def dolev_reischuk_signature_floor(n: int, t: int) -> float:
    """The [51] signature floor ``Ω(nt)`` (constant set to 1)."""
    return float(n * t)
