"""Tests for input configurations and the containment relation (§4.1/4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validity.containment import check_partial_order_axioms
from repro.validity.input_config import (
    InputConfig,
    enumerate_full_configs,
    enumerate_input_configs,
)


class TestConstruction:
    def test_from_mapping(self):
        config = InputConfig.from_mapping(4, 1, {0: "a", 2: "b", 3: "c"})
        assert config.correct == {0, 2, 3}
        assert config.proposal(2) == "b"
        assert config.proposal(1) is None

    def test_full(self):
        config = InputConfig.full(3, 1, ["x", "y", "z"])
        assert config.is_full
        assert config.proposals_multiset() == ["x", "y", "z"]

    def test_full_requires_n_proposals(self):
        with pytest.raises(ValueError, match="full configuration"):
            InputConfig.full(3, 1, ["x"])

    def test_size_bounds_enforced(self):
        # Fewer than n - t pairs is not an input configuration.
        with pytest.raises(ValueError, match="between"):
            InputConfig.from_mapping(4, 1, {0: "a"})

    def test_sorted_unique_pairs_enforced(self):
        with pytest.raises(ValueError, match="sorted"):
            InputConfig(n=3, t=1, pairs=((1, "a"), (0, "b"), (2, "c")))
        with pytest.raises(ValueError, match="sorted"):
            InputConfig(n=3, t=1, pairs=((0, "a"), (0, "b"), (1, "c")))

    def test_out_of_range_pid(self):
        with pytest.raises(ValueError):
            InputConfig(n=3, t=1, pairs=((0, "a"), (1, "b"), (5, "c")))

    def test_hashable(self):
        a = InputConfig.full(3, 1, [0, 1, 0])
        b = InputConfig.full(3, 1, [0, 1, 0])
        assert len({a, b}) == 1


class TestContainment:
    def test_paper_example(self):
        """The §4.2 example with n = 3, t = 1."""
        full = InputConfig.full(3, 1, ["v1", "v2", "v3"])
        sub = InputConfig.from_mapping(3, 1, {0: "v1", 2: "v3"})
        changed = InputConfig.from_mapping(3, 1, {0: "v1", 2: "other"})
        assert full.contains(sub)
        assert not full.contains(changed)

    def test_reflexive(self):
        config = InputConfig.full(3, 1, [0, 0, 1])
        assert config.contains(config)

    def test_different_system_never_contains(self):
        a = InputConfig.full(3, 1, [0, 0, 0])
        b = InputConfig.full(4, 1, [0, 0, 0, 0])
        assert not a.contains(b)

    def test_containment_set_includes_self(self):
        config = InputConfig.full(3, 1, [0, 1, 1])
        contained = list(config.containment_set())
        assert config in contained

    def test_containment_set_size(self):
        # n=3, t=1: Cnt of a full config = itself + 3 two-element subsets.
        config = InputConfig.full(3, 1, [0, 1, 1])
        assert len(list(config.containment_set())) == 4

    def test_restricted_to(self):
        config = InputConfig.full(4, 2, ["a", "b", "c", "d"])
        sub = config.restricted_to([1, 3])
        assert sub.correct == {1, 3}
        assert config.contains(sub)


class TestEnumeration:
    def test_count_matches_formula(self):
        configs = list(enumerate_input_configs(4, 1, (0, 1)))
        assert len(configs) == 4 * 8 + 16  # C(4,3)·2³ + 2⁴

    def test_all_unique(self):
        configs = list(enumerate_input_configs(4, 1, (0, 1)))
        assert len(set(configs)) == len(configs)

    def test_full_configs(self):
        fulls = list(enumerate_full_configs(3, 1, (0, 1)))
        assert len(fulls) == 8
        assert all(config.is_full for config in fulls)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            list(enumerate_input_configs(3, 1, ()))


@st.composite
def configs(draw):
    n, t = 4, 2
    size = draw(st.integers(n - t, n))
    pids = draw(
        st.permutations(range(n)).map(lambda p: sorted(p[:size]))
    )
    values = draw(
        st.lists(
            st.integers(0, 1), min_size=size, max_size=size
        )
    )
    return InputConfig.from_mapping(n, t, dict(zip(pids, values)))


class TestPartialOrderProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(configs(), min_size=1, max_size=6))
    def test_axioms_hold_on_random_samples(self, sample):
        assert check_partial_order_axioms(sample) == []

    @settings(max_examples=50, deadline=None)
    @given(configs(), configs())
    def test_containment_matches_subset_semantics(self, a, b):
        expected = set(b.pairs) <= set(a.pairs)
        assert a.contains(b) == expected
