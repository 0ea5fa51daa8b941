"""Triviality of agreement problems (§1, §4.1).

A *val*-agreement problem is trivial iff some value is admissible in every
input configuration:

    ``∃ v' ∈ V_O : v' ∈ ∩_{c ∈ I} val(c)``

Trivial problems are solvable with zero messages (decide the
always-admissible value immediately), so the ``Ω(t²)`` bound — and the
Algorithm-1 reduction that proves it — applies only to non-trivial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.validity.property import AgreementProblem
from repro.types import Payload


@dataclass(frozen=True)
class TrivialityReport:
    """Outcome of the triviality test.

    Attributes:
        trivial: whether an always-admissible value exists.
        always_admissible: the full set of always-admissible values.
        witness: a deterministic pick from that set (the zero-message
            solution's constant decision), or ``None``.
    """

    trivial: bool
    always_admissible: frozenset[Payload]
    witness: Payload | None


def triviality_report(problem: AgreementProblem) -> TrivialityReport:
    """Decide triviality by intersecting ``val`` over the enumerated ``I``."""
    always = problem.always_admissible()
    witness = (
        min(always, key=repr) if always else None
    )  # deterministic representative
    return TrivialityReport(
        trivial=bool(always),
        always_admissible=always,
        witness=witness,
    )
