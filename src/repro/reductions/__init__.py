"""The paper's reductions as protocol combinators.

* :mod:`repro.reductions.weak_from_any` — Algorithm 1: weak consensus from
  any solvable non-trivial agreement problem at zero message cost (the
  engine of Theorem 3).
* :mod:`repro.reductions.any_from_ic` — Algorithm 2: any containment-
  condition problem from interactive consistency (sufficiency of CC,
  Lemma 9).
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".any_from_ic": ("GammaOverIC", "solve_via_ic"),
        ".weak_from_any": (
            "ReductionPlan", "WeakConsensusViaReduction", "derive_plan",
            "plan_from_executions", "reduce_weak_consensus",
            "reduce_weak_consensus_from_executions", "reduction_spec",
        ),
    },
)
