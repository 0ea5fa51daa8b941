"""Quantitative forms of the bounds (§1, §3, §6).

Lemma 1 / Theorem 2: weak consensus (hence, by Theorem 3, every
non-trivial agreement problem) needs at least ``t²/32`` messages in the
worst case, already under omission failures.

The helpers here are used by experiments to annotate measurements and by the
driver to decide whether an algorithm's observed traffic even *could* be a
correct weak consensus.

>>> weak_consensus_floor(8)
2.0
>>> weak_consensus_floor(32)
32.0
>>> comparison = BoundComparison(t=16, observed=4)
>>> comparison.floor
8.0
>>> comparison.below_floor
True
>>> comparison.render()
't=16: observed 4 < floor t^2/32 = 8.00 (ratio 0.50)'
"""

from __future__ import annotations

from dataclasses import dataclass


def weak_consensus_floor(t: int) -> float:
    """Lemma 1's explicit constant: ``t² / 32`` messages."""
    return t * t / 32


@dataclass(frozen=True)
class BoundComparison:
    """An observed message count against the Lemma-1 floor.

    Attributes:
        t: the corruption budget.
        observed: worst message count observed across executions.
        floor: ``t²/32``.
    """

    t: int
    observed: int

    @property
    def floor(self) -> float:
        return weak_consensus_floor(self.t)

    @property
    def below_floor(self) -> bool:
        """Whether the observation is compatible only with an *incorrect*
        weak consensus algorithm (assuming the observation covers the
        algorithm's worst case)."""
        return self.observed < self.floor

    @property
    def ratio(self) -> float:
        """``observed / floor`` — ≥ 1 for bound-respecting algorithms."""
        floor = self.floor
        if floor == 0:
            return float("inf") if self.observed else 1.0
        return self.observed / floor

    def render(self) -> str:
        """One line for reports."""
        relation = "<" if self.below_floor else ">="
        return (
            f"t={self.t}: observed {self.observed} {relation} "
            f"floor t^2/32 = {self.floor:.2f} (ratio {self.ratio:.2f})"
        )
