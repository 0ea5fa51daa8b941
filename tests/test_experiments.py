"""Integration tests: every experiment reproduces its paper claim.

These run the experiment suite at reduced scale and assert the *shape*
conclusions EXPERIMENTS.md records — who wins, which boundary holds —
rather than absolute numbers.
"""

import pytest

from repro.experiments import (
    run_e1,
    run_e2,
    run_e3,
    run_e4,
    run_e5,
    run_e6,
    run_e7,
    run_e8,
    run_e9,
)


class TestE1WeakConsensusFloor:
    def test_no_point_below_floor(self):
        result = run_e1()
        assert result.data["floor_violations"] == []

    def test_quadratic_shape_on_proportional_grid(self):
        """On n = 2t the fitted exponent reaches ~2 (Ω(t²) visible)."""
        from repro.analysis.complexity import sweep
        from repro.analysis.fitting import fit_sweep, is_superquadratic
        from repro.protocols.weak_consensus import (
            broadcast_weak_consensus_spec,
        )

        points = sweep(
            broadcast_weak_consensus_spec,
            [(2 * t, t) for t in (4, 8, 12, 16)],
            include_mixed=False,
        )
        assert is_superquadratic(fit_sweep(points))

    def test_report_mentions_fit(self):
        result = run_e1(max_t=12)
        assert "power-law fit" in result.report


class TestE2FigureOne:
    def test_bands_match_figure(self):
        result = run_e2()
        isolate_at = result.data["isolate_at"]
        assert result.data["in_group_divergence"] >= isolate_at + 1
        assert result.data["outside_divergence"] >= isolate_at + 2


class TestE3Attack:
    def test_every_cheater_broken(self):
        result = run_e3(ts=(8, 16))
        outcomes = result.data["outcomes"]
        assert result.data["broken"] == len(outcomes)
        assert all(outcome.found_violation for outcome in outcomes)


class TestE4Reduction:
    def test_zero_overhead(self):
        result = run_e4(n=5, t=1)
        assert result.data["max_overhead"] == 0

    def test_decisions_follow_the_bit(self):
        result = run_e4(n=5, t=1)
        for _, bit, decided, *_ in result.data["rows"]:
            assert decided == [bit]


class TestE5Solvability:
    def test_standard_problems_classified_solvable(self):
        result = run_e5(n=4, t=1)
        for row in result.data["rows"]:
            name, trivial, cc, auth, unauth, solved = row
            if trivial == "N":
                assert cc == "Y"
                assert auth == "Y"
                assert solved == "yes"

    def test_interactive_consistency_classified(self):
        """The heaviest classifier input: IC's output domain is |V|^n."""
        from repro.solvability.theorem import classify
        from repro.validity.standard import (
            interactive_consistency_problem,
        )

        report = classify(interactive_consistency_problem(4, 1))
        assert report.cc.holds
        assert not report.trivial

    def test_resilience_grid_thresholds(self):
        """Theorem 4 across (n, t): where each branch flips.

        Strong consensus loses CC at n <= 2t (Theorem 5), and *every*
        problem loses the unauthenticated branch at n <= 3t (Lemma 10)
        while keeping the authenticated one.
        """
        from repro.solvability.theorem import classify
        from repro.validity.standard import (
            strong_consensus_problem,
            weak_consensus_problem,
        )

        def branches(builder, n, t):
            report = classify(builder(n, t))
            return (
                report.cc.holds,
                report.authenticated_solvable,
                report.unauthenticated_solvable,
            )

        # Weak consensus: always CC; unauthenticated only when n > 3t.
        assert branches(weak_consensus_problem, 4, 1) == (True, True, True)
        assert branches(weak_consensus_problem, 6, 2) == (
            True,
            True,
            False,
        )
        # Strong consensus: CC dies at n <= 2t.
        assert branches(strong_consensus_problem, 4, 2) == (
            False,
            False,
            False,
        )
        assert branches(strong_consensus_problem, 5, 2)[0]


class TestE6Theorem5:
    def test_boundary_exact(self):
        result = run_e6()
        assert result.data["mismatches"] == []
        assert len(result.data["points"]) > 0


class TestE7ProtocolComplexity:
    def test_dolev_strong_at_least_quadratic_in_t(self):
        from repro.analysis.fitting import fit_sweep

        result = run_e7(max_t=8)
        ds_points = result.data["points"]["dolev-strong"]
        fit = fit_sweep(ds_points)
        assert fit.exponent >= 1.8  # quadratic shape on the n = 2t grid
        # And every point respects the Lemma-1 floor.
        assert all(
            point.worst_messages >= point.floor for point in ds_points
        )

    def test_dolev_strong_single_run_decides_the_input(self):
        from repro.protocols.dolev_strong import dolev_strong_spec

        execution = dolev_strong_spec(16, 8).run_uniform(0)
        assert set(execution.correct_decisions().values()) == {0}

    def test_phase_king_single_run_decides_the_input(self):
        from repro.protocols.phase_king import phase_king_spec

        execution = phase_king_spec(13, 4).run_uniform(1)
        assert set(execution.correct_decisions().values()) == {1}


class TestE8ExternalValidity:
    def test_corollary1_hypothesis_and_bound(self):
        result = run_e8(n=5, t=2)
        assert result.data["decision_a"] != result.data["decision_b"]
        assert result.data["messages"] >= result.data["floor"]

    def test_reduction_solves_weak_consensus(self):
        result = run_e8(n=5, t=2)
        zero = result.data["weak_zero"].correct_decisions()
        one = result.data["weak_one"].correct_decisions()
        assert set(zero.values()) == {0}
        assert set(one.values()) == {1}


class TestE9SwapMerge:
    def test_constructions_verified(self):
        result = run_e9(n=8, t=4, samples=3)
        assert result.data["swap_checks"] > 0
        assert result.data["merge_checks"] > 0


class TestReportPlumbing:
    @pytest.mark.parametrize(
        "runner,experiment_id",
        [
            (run_e2, "E2"),
            (run_e6, "E6"),
        ],
    )
    def test_result_structure(self, runner, experiment_id):
        result = runner()
        assert result.experiment == experiment_id
        assert result.report
        assert result.title
