"""Tests for the triviality analysis (§4.1)."""

from repro.validity.standard import (
    constant_problem,
    external_validity_problem,
    strong_consensus_problem,
    weak_consensus_problem,
)
from repro.validity.triviality import triviality_report


class TestTrivialityReport:
    def test_trivial_problem_has_witness(self):
        report = triviality_report(constant_problem(3, 1, value=0))
        assert report.trivial
        assert report.witness == 0
        assert report.always_admissible == {0}

    def test_non_trivial_problem_has_no_witness(self):
        report = triviality_report(weak_consensus_problem(3, 1))
        assert not report.trivial
        assert report.witness is None
        assert report.always_admissible == frozenset()

    def test_external_validity_is_trivial_in_the_formalism(self):
        problem = external_validity_problem(
            3, 1, values=(0, 1, 2), predicate=lambda v: v != 0
        )
        report = triviality_report(problem)
        assert report.trivial
        assert report.always_admissible == {1, 2}
        assert report.witness == 1  # deterministic representative

    def test_predicate_form(self):
        assert constant_problem(3, 1, value=1).is_trivial()
        assert not strong_consensus_problem(3, 1).is_trivial()
