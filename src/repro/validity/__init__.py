"""The validity-property formalism of §4.1.

* :mod:`repro.validity.input_config` — process-proposal pairs, the set
  ``I`` of input configurations, and enumeration for finite domains.
* :mod:`repro.validity.property` — validity properties and agreement
  problems as values.
* :mod:`repro.validity.standard` — the named properties of the paper.
* :mod:`repro.validity.containment` — the ⊇ relation, ``Cnt(c)`` and the
  Lemma-7 intersection.
* :mod:`repro.validity.triviality` — the trivial/non-trivial divide.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".containment": (
            "admissible_under_containment", "check_partial_order_axioms",
            "containment_set", "contains",
        ),
        ".input_config": (
            "InputConfig", "enumerate_full_configs", "enumerate_input_configs",
        ),
        ".property": (
            "AgreementProblem", "ValidityFn", "cached", "problem_from_table",
            "tabulate",
        ),
        ".standard": (
            "ABSENT", "STANDARD_PROBLEMS", "byzantine_broadcast_problem",
            "constant_problem", "correct_proposal_problem",
            "external_validity_problem", "interactive_consistency_problem",
            "strong_consensus_problem", "vector_consensus_problem",
            "weak_consensus_problem",
        ),
        ".triviality": ("TrivialityReport", "triviality_report"),
    },
)
