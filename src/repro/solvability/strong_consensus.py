"""Theorem 5: strong consensus is authenticated-solvable only if ``n > 2t``.

The paper re-derives this classical bound ([6]) from the general
solvability theorem: with ``n <= 2t`` (binary domain) the configuration
"first ``t`` processes propose 0, the rest 1" contains both an all-zero
and an all-one sub-configuration, whose strong-validity admissible sets
({0} and {1}) are disjoint — so the containment condition fails.

This module reproduces the argument computationally: it sweeps an
``(n, t)`` grid, decides CC for strong consensus at each point, and
exposes the paper's explicit failing configuration.  Strong validity reads
only the proposal multiset, so each decision runs over one representative
configuration per multiset (O(n·t) of them for binary values), not over
all of ``I``; the §5.3 configuration is itself the representative of its
multiset, and so is named among the failures at every ``n <= 2t``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.solvability.cc import containment_condition
from repro.validity.input_config import InputConfig
from repro.validity.standard import strong_consensus_problem
from repro.types import validate_system_size


@dataclass(frozen=True)
class BoundaryPoint:
    """One grid point of the Theorem-5 sweep.

    Attributes:
        n, t: the system parameters.
        cc_holds: whether strong consensus satisfies CC there.
        expected: the theorem's prediction, ``n > 2t``.
    """

    n: int
    t: int
    cc_holds: bool

    @property
    def expected(self) -> bool:
        return self.n > 2 * self.t

    @property
    def matches_theorem(self) -> bool:
        """Whether measurement and Theorem 5 agree at this point."""
        return self.cc_holds == self.expected


def strong_consensus_cc(n: int, t: int) -> bool:
    """Whether binary strong consensus satisfies CC at ``(n, t)``."""
    return containment_condition(
        strong_consensus_problem(n, t)
    ).holds


def paper_counterexample(n: int, t: int) -> InputConfig:
    """The §5.3 configuration: first ``t`` propose 0, the rest propose 1.

    For ``n = 2t`` it contains the all-zero ``I_t`` configuration on the
    first half and the all-one one on the second half, certifying the CC
    failure.
    """
    validate_system_size(n, t)
    return InputConfig.full(
        n, t, [0] * t + [1] * (n - t)
    )


def counterexample_certificate(n: int, t: int) -> tuple[InputConfig, InputConfig, InputConfig]:
    """The triple ``(c, c_0, c_1)`` of the Theorem-5 proof for ``n <= 2t``.

    Returns the mixed configuration plus the two contained unanimous
    configurations whose admissible sets are disjoint.

    Raises:
        ValueError: when ``n > 2t`` (no counterexample exists — that is
            the theorem).
    """
    if n > 2 * t:
        raise ValueError(
            f"strong consensus satisfies CC for n={n} > 2t={2 * t}; "
            "no counterexample"
        )
    mixed = paper_counterexample(n, t)
    zeros = mixed.restricted_to(range(t))
    ones = mixed.restricted_to(range(t, n))
    return mixed, zeros, ones


def sweep_boundary(
    n_values: list[int], t_values: list[int]
) -> list[BoundaryPoint]:
    """Decide CC across a grid (experiment E6); skips illegal pairs."""
    points: list[BoundaryPoint] = []
    for n in n_values:
        for t in t_values:
            if not 1 <= t < n:
                continue
            points.append(
                BoundaryPoint(n=n, t=t, cc_holds=strong_consensus_cc(n, t))
            )
    return points
