"""Tests for the quantitative bound helpers."""

from repro.lowerbound.bound import BoundComparison, weak_consensus_floor


class TestFloors:
    def test_lemma1_constant(self):
        assert weak_consensus_floor(8) == 2.0
        assert weak_consensus_floor(32) == 32.0
        assert weak_consensus_floor(0) == 0.0


class TestComparison:
    def test_below_floor(self):
        comparison = BoundComparison(t=32, observed=10)
        assert comparison.below_floor
        assert comparison.ratio < 1

    def test_at_or_above_floor(self):
        comparison = BoundComparison(t=32, observed=64)
        assert not comparison.below_floor
        assert comparison.ratio == 2.0

    def test_zero_t_edge(self):
        assert BoundComparison(t=0, observed=0).ratio == 1.0
        assert BoundComparison(t=0, observed=5).ratio == float("inf")

    def test_render(self):
        text = BoundComparison(t=8, observed=1).render()
        assert "t=8" in text
        assert "<" in text
