"""Tests for Theorem 5: strong consensus needs n > 2t."""

import pytest

from repro.solvability.cc import containment_condition
from repro.solvability.strong_consensus import (
    counterexample_certificate,
    paper_counterexample,
    strong_consensus_cc,
    sweep_boundary,
)
from repro.validity.standard import strong_consensus_problem


class TestBoundary:
    @pytest.mark.parametrize(
        "n,t,expected",
        [
            (3, 1, True),
            (4, 1, True),
            (4, 2, False),
            (5, 2, True),
            (6, 3, False),
            (2, 1, False),
            (7, 3, True),
        ],
    )
    def test_cc_iff_n_over_2t(self, n, t, expected):
        assert strong_consensus_cc(n, t) == expected
        assert expected == (n > 2 * t)

    def test_sweep_matches_theorem_everywhere(self):
        points = sweep_boundary(list(range(2, 7)), list(range(1, 6)))
        assert points  # the grid is non-empty
        assert all(point.matches_theorem for point in points)

    def test_sweep_skips_illegal_pairs(self):
        points = sweep_boundary([3], [3, 4])
        assert points == []

    def test_theorem_5_on_every_point_up_to_40(self):
        """CC ⇔ n > 2t on every 1 ≤ t < n ≤ 40; below the bound the §5.3
        configuration is the representative of a failing multiset."""
        for n in range(2, 41):
            for t in range(1, n):
                report = containment_condition(strong_consensus_problem(n, t))
                assert report.holds == (n > 2 * t), (n, t)
                if n <= 2 * t:
                    assert paper_counterexample(n, t) in report.failures, (n, t)


class TestCounterexample:
    def test_paper_configuration_shape(self):
        config = paper_counterexample(4, 2)
        assert config.proposals_multiset() == [0, 0, 1, 1]

    def test_certificate_is_disjoint_forcing_pair(self):
        problem = strong_consensus_problem(4, 2)
        mixed, zeros, ones = counterexample_certificate(4, 2)
        assert mixed.contains(zeros)
        assert mixed.contains(ones)
        assert problem.admissible(zeros) == {0}
        assert problem.admissible(ones) == {1}
        assert problem.admissible(zeros) & problem.admissible(ones) == (
            frozenset()
        )

    def test_certificate_refused_when_solvable(self):
        with pytest.raises(ValueError, match="no counterexample"):
            counterexample_certificate(5, 2)
