"""Tests for power-law fitting."""

import pytest

from repro.analysis.fitting import fit_power_law, is_superquadratic


class TestFit:
    def test_exact_quadratic(self):
        ts = [4, 8, 16, 32]
        fit = fit_power_law(ts, [3 * t * t for t in ts])
        assert abs(fit.exponent - 2.0) < 1e-9
        assert abs(fit.coefficient - 3.0) < 1e-9
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_linear(self):
        ts = [4, 8, 16, 32]
        fit = fit_power_law(ts, [5 * t for t in ts])
        assert abs(fit.exponent - 1.0) < 1e-9

    def test_all_zero_degenerate(self):
        fit = fit_power_law([4, 8], [0, 0])
        assert fit.points == 0
        assert fit.coefficient == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_power_law([1, 2], [1])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two non-zero"):
            fit_power_law([4, 8], [0, 16])

    def test_one_shared_t_rejected(self):
        # Three samples but no spread in t: no slope exists.
        with pytest.raises(ValueError, match="two distinct t"):
            fit_power_law([4, 4, 4], [10, 20, 40])

    def test_two_point_fit_is_exact(self):
        # log m = log 2 + 3 log t through (2, 16) and (4, 128).
        fit = fit_power_law([2, 4], [16, 128])
        assert fit.exponent == pytest.approx(3.0)
        assert fit.coefficient == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.points == 2

    def test_all_zero_fit_is_the_zero_law(self):
        fit = fit_power_law([2, 4, 8], [0, 0, 0])
        assert (fit.exponent, fit.coefficient, fit.r_squared) == (
            0.0,
            0.0,
            1.0,
        )

    def test_noisy_three_point_fit_by_hand(self):
        # With a = ln 2 the points are x = (0, a, 2a), y = (0, 2a, 3a):
        # Sxx = 2a², Sxy = 3a², so slope 3/2 and intercept a/6;
        # residuals (-a/6, a/3, -a/6) sum to a²/6 against a total of
        # 14a²/3, so R² = 1 - 1/28.
        fit = fit_power_law([1, 2, 4], [1, 4, 8])
        assert fit.exponent == pytest.approx(1.5)
        assert fit.coefficient == pytest.approx(2 ** (1 / 6))
        assert fit.r_squared == pytest.approx(27 / 28)
        assert fit.points == 3

    def test_render(self):
        fit = fit_power_law([4, 8], [16, 64])
        assert "t^2.00" in fit.render()


class TestClassifiers:
    def test_quadratic_is_superquadratic(self):
        fit = fit_power_law([4, 8, 16], [t * t for t in (4, 8, 16)])
        assert is_superquadratic(fit)

    def test_linear_is_subquadratic(self):
        fit = fit_power_law([4, 8, 16], [t for t in (4, 8, 16)])
        assert fit.exponent < 2
        assert not is_superquadratic(fit)

    def test_degenerate_counts_as_subquadratic(self):
        fit = fit_power_law([4, 8], [0, 0])
        assert fit.points == 0
        assert not is_superquadratic(fit)
