"""Scaling-law fits for the complexity sweeps (E1/E3/E7 shape checks).

The paper's claim is asymptotic: worst-case messages grow as ``Ω(t²)`` for
correct algorithms and (for the cheaters we break) as ``o(t²)``.  A log-log
linear fit of ``messages = a · t^k`` recovers the exponent ``k``; the
experiments and their tests assert ``k ≈ 2`` (or more) for
bound-respecting protocols and ``k < 2`` (with a sub-floor constant) for
cheaters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.complexity import SweepPoint


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted ``messages ≈ coefficient · t^exponent`` law.

    Attributes:
        exponent: the fitted power of ``t``.
        coefficient: the fitted multiplicative constant.
        r_squared: goodness of fit in log-log space.
        points: number of samples used.
    """

    exponent: float
    coefficient: float
    r_squared: float
    points: int

    def predict(self, t: int) -> float:
        """The fitted message count at ``t``."""
        return self.coefficient * t**self.exponent

    def render(self) -> str:
        return (
            f"messages ≈ {self.coefficient:.3g} · t^{self.exponent:.2f} "
            f"(R²={self.r_squared:.3f}, {self.points} points)"
        )


def fit_power_law(
    ts: Sequence[int], messages: Sequence[int]
) -> PowerLawFit:
    """Least-squares fit in log-log space (closed form).

    Zero-message samples are excluded (log undefined); an all-zero series
    fits the degenerate law ``0 · t^0``.

    Raises:
        ValueError: on mismatched lengths, fewer than two usable points
            (and not the all-zero degenerate case), or usable points that
            all share one ``t`` (no slope is defined).
    """
    if len(ts) != len(messages):
        raise ValueError("ts and messages must have equal length")
    usable = [
        (t, m) for t, m in zip(ts, messages) if t > 0 and m > 0
    ]
    if not usable:
        return PowerLawFit(
            exponent=0.0, coefficient=0.0, r_squared=1.0, points=0
        )
    if len(usable) < 2:
        raise ValueError(
            "need at least two non-zero samples for a power-law fit"
        )
    if len({t for t, _ in usable}) < 2:
        raise ValueError(
            "need at least two distinct t values for a power-law fit"
        )
    log_t = [math.log(t) for t, _ in usable]
    log_m = [math.log(m) for _, m in usable]
    mean_t = math.fsum(log_t) / len(usable)
    mean_m = math.fsum(log_m) / len(usable)
    spread = math.fsum((x - mean_t) ** 2 for x in log_t)
    slope = (
        math.fsum(
            (x - mean_t) * (y - mean_m) for x, y in zip(log_t, log_m)
        )
        / spread
    )
    intercept = mean_m - slope * mean_t
    residual = math.fsum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(log_t, log_m)
    )
    total = math.fsum((y - mean_m) ** 2 for y in log_m)
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return PowerLawFit(
        exponent=slope,
        coefficient=math.exp(intercept),
        r_squared=r_squared,
        points=len(usable),
    )


def fit_sweep(points: Sequence[SweepPoint]) -> PowerLawFit:
    """Fit the exponent of a :func:`repro.analysis.complexity.sweep`."""
    return fit_power_law(
        [point.t for point in points],
        [point.worst_messages for point in points],
    )


def is_superquadratic(
    fit: PowerLawFit, *, tolerance: float = 0.25
) -> bool:
    """Whether the fitted exponent is ≥ 2 (within tolerance)."""
    return fit.points > 0 and fit.exponent >= 2.0 - tolerance


def is_subquadratic(
    fit: PowerLawFit, *, tolerance: float = 0.25
) -> bool:
    """Whether the fitted exponent is < 2 (within tolerance).

    The degenerate zero-message fit counts as sub-quadratic (it is the
    strongest possible violation of the floor).
    """
    if fit.points == 0:
        return True
    return fit.exponent <= 2.0 - tolerance
