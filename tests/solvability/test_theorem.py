"""Tests for the general solvability theorem (Theorem 4)."""

from repro.solvability.theorem import classify
from repro.validity.standard import (
    byzantine_broadcast_problem,
    constant_problem,
    correct_proposal_problem,
    interactive_consistency_problem,
    strong_consensus_problem,
    weak_consensus_problem,
)


class TestClassification:
    def test_weak_consensus_solvable_everywhere_cc_holds(self):
        report = classify(weak_consensus_problem(4, 1))
        assert not report.trivial
        assert report.cc.holds
        assert report.authenticated_solvable
        assert report.unauthenticated_solvable  # 4 > 3·1

    def test_unauthenticated_needs_n_over_3t(self):
        report = classify(weak_consensus_problem(6, 2))
        assert report.authenticated_solvable
        assert not report.unauthenticated_solvable  # 6 <= 6

    def test_strong_consensus_unsolvable_at_n_2t(self):
        report = classify(strong_consensus_problem(4, 2))
        assert not report.trivial
        assert not report.cc.holds
        assert not report.authenticated_solvable
        assert not report.unauthenticated_solvable

    def test_trivial_problems_always_solvable(self):
        report = classify(constant_problem(4, 3, value=0))
        assert report.trivial
        assert report.authenticated_solvable
        assert report.unauthenticated_solvable  # constant needs no msgs

    def test_broadcast_solvable_for_large_t_authenticated_only(self):
        """Dolev–Strong territory: t = n - 1 is fine with signatures."""
        report = classify(byzantine_broadcast_problem(4, 3))
        assert report.cc.holds
        assert report.authenticated_solvable
        assert not report.unauthenticated_solvable

    def test_interactive_consistency_cc(self):
        report = classify(interactive_consistency_problem(3, 1))
        assert report.cc.holds
        assert report.authenticated_solvable

    def test_correct_proposal_boundary(self):
        """Correct-proposal validity (binary) fails CC once n <= 2t,
        the same pigeonhole as Theorem 5."""
        assert classify(correct_proposal_problem(5, 2)).cc.holds
        assert not classify(correct_proposal_problem(4, 2)).cc.holds

    def test_render_mentions_every_column(self):
        text = classify(weak_consensus_problem(4, 1)).render()
        for token in ("trivial=", "CC=", "auth=", "unauth="):
            assert token in text
