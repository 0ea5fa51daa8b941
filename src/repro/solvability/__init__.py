"""The general solvability theorem machinery (§5).

* :mod:`repro.solvability.cc` — the containment condition (Definition 3)
  and Γ construction/verification.
* :mod:`repro.solvability.theorem` — Theorem 4 as a decision procedure.
* :mod:`repro.solvability.strong_consensus` — Theorem 5 (strong consensus
  needs ``n > 2t``) with the paper's explicit counterexample.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".cc": (
            "CCReport", "GammaFunction", "containment_condition",
            "satisfies_cc", "verify_gamma",
        ),
        ".strong_consensus": (
            "BoundaryPoint", "counterexample_certificate",
            "paper_counterexample", "strong_consensus_cc", "sweep_boundary",
        ),
        ".theorem": ("SolvabilityReport", "classify"),
    },
)
