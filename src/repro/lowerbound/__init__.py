"""Theorem 2 made executable: the Ω(t²) lower-bound attack pipeline.

* :mod:`repro.lowerbound.bound` — the ``t²/32`` floor and comparisons.
* :mod:`repro.lowerbound.partition` — the (A, B, C) partitions (Table 1).
* :mod:`repro.lowerbound.witnesses` — machine-checkable violation
  counterexamples.
* :mod:`repro.lowerbound.driver` — the Lemma 2–5 pipeline that breaks any
  sub-quadratic weak consensus candidate.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".bound": ("BoundComparison", "weak_consensus_floor"),
        ".driver": (
            "AttackOutcome", "LowerBoundDriver", "attack_weak_consensus",
        ),
        ".partition": (
            "ABCPartition", "canonical_partition", "paper_partition",
        ),
        ".witnesses": ("ViolationKind", "ViolationWitness", "verify_witness"),
    },
)
