#!/usr/bin/env python3
"""Explore the landscape of solvable agreement problems (Theorem 4/5).

* classify every standard validity property on a small system;
* sweep the (n, t) grid for strong consensus and draw Theorem 5's
  ``n > 2t`` boundary;
* design a *custom* validity property, decide its solvability, and —
  when the containment condition holds — actually solve it with
  Algorithm 2 over interactive consistency, under a Byzantine fault.

Run with: ``python examples/solvability_explorer.py``
"""

import pathlib
import sys

from repro.analysis import render_table
from repro.sim import ByzantineAdversary
from repro.reductions import solve_via_ic
from repro.solvability import classify, strong_consensus_cc
from repro.validity import (
    AgreementProblem,
    InputConfig,
    byzantine_broadcast_problem,
    correct_proposal_problem,
    interactive_consistency_problem,
    strong_consensus_problem,
    weak_consensus_problem,
)

# The Byzantine strategies are the test suite's adversary library.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from byzantine_strategies import two_faced


def classify_standard_problems() -> None:
    n, t = 4, 1
    print(f"=== Theorem 4 classification at n={n}, t={t} ===")
    for builder in (
        weak_consensus_problem,
        strong_consensus_problem,
        byzantine_broadcast_problem,
        interactive_consistency_problem,
        correct_proposal_problem,
    ):
        print(classify(builder(n, t)).render())
    print()


def theorem5_boundary() -> None:
    print("=== Theorem 5: strong consensus needs n > 2t ===")
    ns = range(3, 8)
    ts = range(1, 4)
    rows = []
    for n in ns:
        cells = []
        for t in ts:
            if t >= n:
                cells.append("-")
            else:
                cells.append(
                    "solvable" if strong_consensus_cc(n, t) else "NO"
                )
        rows.append((n, *cells))
    print(
        render_table(
            ("n \\ t", *(str(t) for t in ts)), rows
        )
    )
    print("(the 'NO' region is exactly n <= 2t)")
    print()


def median_validity(n: int, t: int) -> AgreementProblem:
    """A custom property: decide a value between the correct extremes.

    With proposals from {0, 1, 2}, the decision must lie within
    ``[min, max]`` of the correct proposals — an approximate-agreement
    flavoured validity that is easy to state and not obviously solvable.
    """
    domain = (0, 1, 2)

    def validity(config: InputConfig) -> frozenset:
        proposals = config.proposals_multiset()
        low, high = min(proposals), max(proposals)
        return frozenset(v for v in domain if low <= v <= high)

    return AgreementProblem(
        name="between-correct-extremes",
        n=n,
        t=t,
        input_values=domain,
        output_values=domain,
        validity=validity,
    )


def custom_property() -> None:
    n, t = 4, 1
    problem = median_validity(n, t)
    report = classify(problem)
    print("=== a custom validity property ===")
    print(report.render())
    if not report.cc.holds:
        print("containment condition fails; unsolvable (Theorem 4)")
        return
    spec = solve_via_ic(problem, authenticated=True)
    adversary = ByzantineAdversary({3}, {3: two_faced(0, 2)})
    execution = spec.run([2, 1, 2, 0], adversary)
    decisions = {
        execution.decision(pid) for pid in execution.correct
    }
    assert len(decisions) == 1
    decided = decisions.pop()
    print(f"Algorithm 2 solved it under a two-faced Byzantine process: "
          f"decided {decided}")
    correct_proposals = [2, 1, 2]
    assert min(correct_proposals) <= decided <= max(correct_proposals)
    print("decision lies between the correct extremes, as required")


if __name__ == "__main__":
    classify_standard_problems()
    theorem5_boundary()
    custom_property()
