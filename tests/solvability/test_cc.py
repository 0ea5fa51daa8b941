"""Tests for the containment condition and Γ (Definition 3)."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnsolvableProblemError
from repro.solvability.cc import (
    containment_condition,
    satisfies_cc,
    verify_gamma,
)
from repro.validity.containment import admissible_under_containment
from repro.validity.input_config import InputConfig, enumerate_input_configs
from repro.validity.property import problem_from_table, tabulate
from repro.validity.standard import (
    STANDARD_PROBLEMS,
    byzantine_broadcast_problem,
    constant_problem,
    correct_proposal_problem,
    external_validity_problem,
    strong_consensus_problem,
    vector_consensus_problem,
    weak_consensus_problem,
)


class TestStandardProblems:
    def test_weak_consensus_satisfies_cc(self):
        report = containment_condition(weak_consensus_problem(4, 1))
        assert report.holds
        assert not report.failures

    def test_broadcast_satisfies_cc(self):
        assert satisfies_cc(byzantine_broadcast_problem(4, 1))

    def test_strong_consensus_cc_depends_on_resilience(self):
        assert satisfies_cc(strong_consensus_problem(5, 2))
        assert not satisfies_cc(strong_consensus_problem(4, 2))

    def test_failure_report_names_configurations(self):
        report = containment_condition(strong_consensus_problem(4, 2))
        assert not report.holds
        assert report.failures
        # The paper's mixed configuration must be among the failures.
        mixed = InputConfig.full(4, 2, [0, 0, 1, 1])
        assert mixed in report.failures

    def test_trivial_problem_satisfies_cc(self):
        """A trivial problem always has Γ = the constant witness."""
        report = containment_condition(constant_problem(4, 1, value=1))
        assert report.holds
        assert set(report.gamma.values()) == {1}


class TestGammaFunction:
    def test_gamma_total_on_enumerated_configs(self):
        problem = weak_consensus_problem(3, 1)
        gamma = containment_condition(problem).gamma_fn()
        for config in problem.input_configs():
            assert gamma(config) in problem.admissible(config)

    def test_gamma_respects_definition3(self):
        problem = weak_consensus_problem(3, 1)
        report = containment_condition(problem)
        assert verify_gamma(problem, report.gamma_fn()) == []

    def test_gamma_fn_raises_when_cc_fails(self):
        report = containment_condition(strong_consensus_problem(4, 2))
        with pytest.raises(UnsolvableProblemError, match="containment"):
            report.gamma_fn()

    def test_gamma_unknown_config_raises(self):
        problem = weak_consensus_problem(3, 1)
        gamma = containment_condition(problem).gamma_fn()
        foreign = InputConfig.full(3, 1, ["x", "y", "z"])
        with pytest.raises(KeyError, match="not defined"):
            gamma(foreign)

    def test_verify_gamma_catches_bad_assignments(self):
        problem = weak_consensus_problem(3, 1)
        report = containment_condition(problem)
        broken = dict(report.gamma)
        unanimous_zero = InputConfig.full(3, 1, [0, 0, 0])
        broken[unanimous_zero] = 1  # inadmissible under the config itself
        violations = verify_gamma(problem, broken)
        assert violations
        assert "inadmissible" in violations[0]

    def test_verify_gamma_catches_missing_entries(self):
        problem = weak_consensus_problem(3, 1)
        violations = verify_gamma(problem, {})
        assert all("undefined" in entry for entry in violations)
        assert violations


FOLD_SIZES = ((3, 1), (4, 1), (4, 2), (5, 2))
FOLD_DOMAINS = ((0, 1), (0, 1, 2))


@st.composite
def table_problems(draw, sizes=FOLD_SIZES, domains=FOLD_DOMAINS):
    """Arbitrary table-backed problems over an (n, t) and domain grid.

    Each configuration gets the whole domain or an arbitrary non-empty
    subset of it with equal odds, so both holding and failing problems
    (with failures at every size) are common.
    """
    n, t = draw(st.sampled_from(sizes))
    domain = draw(st.sampled_from(domains))
    subsets = [
        frozenset(subset)
        for size in range(1, len(domain) + 1)
        for subset in itertools.combinations(domain, size)
    ]
    configs = list(enumerate_input_configs(n, t, domain))
    entries = draw(
        st.lists(
            st.one_of(
                st.just(frozenset(domain)), st.sampled_from(subsets)
            ),
            min_size=len(configs),
            max_size=len(configs),
        )
    )
    return problem_from_table(
        "table", n, t, domain, domain, dict(zip(configs, entries))
    )


BINARY_3_1 = {"sizes": ((3, 1),), "domains": ((0, 1),)}


class TestCCProperties:
    @settings(max_examples=40, deadline=None)
    @given(table_problems(**BINARY_3_1))
    def test_cc_report_internally_consistent(self, problem):
        """Property: whenever the decision procedure claims CC, the Γ it
        built passes the independent Definition-3 verifier; whenever it
        refuses, some configuration's intersection really is empty."""
        report = containment_condition(problem)
        if report.holds:
            assert verify_gamma(problem, report.gamma_fn()) == []
        else:
            config = report.failures[0]
            assert (
                admissible_under_containment(problem, config)
                == frozenset()
            )

    @settings(max_examples=40, deadline=None)
    @given(table_problems(**BINARY_3_1))
    def test_trivial_implies_cc(self, problem):
        """Property: triviality implies CC (the constant is a Γ)."""
        if problem.is_trivial():
            assert satisfies_cc(problem)


def recording(problem):
    """``problem`` with a ``val`` that logs every configuration it sees."""
    calls = []

    def validity(config):
        calls.append(config)
        return problem.validity(config)

    return dataclasses.replace(problem, validity=validity), calls


class TestFoldMatchesDefinition:
    """``containment_condition`` folds children's intersections; the
    literal Lemma-7 intersection per configuration is its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(table_problems())
    def test_report_equals_lemma7_definition(self, problem):
        traced, calls = recording(problem)
        report = containment_condition(traced)
        oracle, reached = recording(problem)
        definition = {
            config: admissible_under_containment(oracle, config)
            for config in problem.input_configs()
        }
        assert list(report.admissible_sets.items()) == list(
            definition.items()
        )
        assert report.failures == tuple(
            config for config, common in definition.items() if not common
        )
        assert report.holds == (not report.failures)
        if report.holds:
            assert report.gamma == {
                config: min(common, key=repr)
                for config, common in definition.items()
            }
        else:
            assert report.gamma == {}
        # val runs once at each configuration the definition reaches.
        assert calls == list(dict.fromkeys(reached))

    def test_ill_formed_val_raises_where_definition_does(self):
        table = tabulate(strong_consensus_problem(4, 2))
        reached = InputConfig.from_mapping(4, 2, {0: 0, 1: 0, 2: 1})
        table[reached] = frozenset()
        problem = problem_from_table("ill", 4, 2, (0, 1), (0, 1), table)
        with pytest.raises(ValueError) as definition:
            for config in problem.input_configs():
                admissible_under_containment(problem, config)
        assert repr(reached) in str(definition.value)
        with pytest.raises(ValueError) as fold:
            containment_condition(problem)
        assert str(fold.value) == str(definition.value)

    def test_empty_val_above_empty_intersection_is_not_reached(self):
        table = tabulate(strong_consensus_problem(4, 2))
        mixed = InputConfig.full(4, 2, [0, 0, 1, 1])
        table[mixed] = frozenset()
        problem = problem_from_table("ill", 4, 2, (0, 1), (0, 1), table)
        report = containment_condition(problem)
        assert not report.holds
        assert mixed in report.failures
        assert report.admissible_sets[mixed] == frozenset()
        assert admissible_under_containment(problem, mixed) == frozenset()

    def test_fold_calls_val_past_the_memo(self):
        """The fold visits each configuration once, so it leaves a
        cached ``val``'s memo empty; the triviality walk fills it."""
        problem = strong_consensus_problem(6, 2)
        containment_condition(problem)
        assert problem.validity.cache_info().currsize == 0
        problem.always_admissible()
        assert problem.validity.cache_info().currsize > 0


ANONYMOUS_BUILDERS = {
    "weak-consensus": weak_consensus_problem,
    "strong-consensus": strong_consensus_problem,
    "correct-proposal": correct_proposal_problem,
    "constant": lambda n, t, domain: constant_problem(
        n, t, value=domain[-1], values=domain
    ),
    "external-validity": lambda n, t, domain: external_validity_problem(
        n, t, domain, lambda value: value != domain[0]
    ),
}
MULTISET_SIZES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2))


def path_disagreements(problem):
    """Where the multiset path and the configuration path differ.

    The oracle is ``problem`` without the marker, which walks all of
    ``I``; the multiset path must agree with it on the verdict, the
    failing multisets, the intersection at every configuration, Γ at
    every configuration and the always-admissible set.
    """
    oracle_problem = dataclasses.replace(problem, anonymous=False)
    fast = containment_condition(problem)
    oracle = containment_condition(oracle_problem)
    found = []
    if fast.holds != oracle.holds:
        found.append(f"holds {fast.holds} != {oracle.holds}")
    failing = {problem.representative(config) for config in oracle.failures}
    if len(set(fast.failures)) != len(fast.failures):
        found.append("a failing multiset is named twice")
    if set(fast.failures) != failing:
        found.append(f"failures {fast.failures} != {sorted(failing, key=repr)}")
    for config in problem.input_configs():
        common = fast.admissible_sets[problem.representative(config)]
        if common != oracle.admissible_sets[config]:
            found.append(f"intersection at {config!r}")
    if fast.holds and oracle.holds:
        gamma, oracle_gamma = fast.gamma_fn(), oracle.gamma_fn()
        for config in problem.input_configs():
            if gamma(config) != oracle_gamma(config):
                found.append(f"Γ at {config!r}")
        if verify_gamma(problem, gamma):
            found.append("Γ fails Definition 3")
    if problem.always_admissible() != oracle_problem.always_admissible():
        found.append("always-admissible sets differ")
    return found


@st.composite
def multiset_tables(draw, sizes=MULTISET_SIZES, domains=FOLD_DOMAINS):
    """Arbitrary anonymous table-backed problems: one entry per multiset."""
    n, t = draw(st.sampled_from(sizes))
    domain = draw(st.sampled_from(domains))
    subsets = [
        frozenset(subset)
        for size in range(1, len(domain) + 1)
        for subset in itertools.combinations(domain, size)
    ]
    by_multiset = {}
    table = {}
    for config in enumerate_input_configs(n, t, domain):
        multiset = tuple(sorted(config.proposals_multiset()))
        if multiset not in by_multiset:
            by_multiset[multiset] = draw(
                st.one_of(
                    st.just(frozenset(domain)), st.sampled_from(subsets)
                )
            )
        table[config] = by_multiset[multiset]
    problem = problem_from_table("multiset-table", n, t, domain, domain, table)
    return dataclasses.replace(problem, anonymous=True)


class TestMultisetPathMatchesConfigurations:
    """For an anonymous ``val`` the fold over one representative per
    multiset decides exactly what the fold over all of ``I`` decides."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(ANONYMOUS_BUILDERS)),
        st.sampled_from(MULTISET_SIZES),
        st.sampled_from(FOLD_DOMAINS),
    )
    def test_standard_builders_agree(self, name, size, domain):
        problem = ANONYMOUS_BUILDERS[name](*size, domain)
        assert problem.anonymous
        assert path_disagreements(problem) == []

    @settings(max_examples=60, deadline=None)
    @given(multiset_tables())
    def test_arbitrary_anonymous_tables_agree(self, problem):
        assert path_disagreements(problem) == []

    def test_only_multiset_builders_are_marked(self):
        builders = (*STANDARD_PROBLEMS, vector_consensus_problem)
        marked = {
            builder.__name__ for builder in builders
            if builder(3, 1).anonymous
        }
        assert marked == {
            "weak_consensus_problem", "strong_consensus_problem",
            "correct_proposal_problem",
        }

    def test_classify_never_enumerates_all_configurations(self, monkeypatch):
        """Triviality and CC of an anonymous problem visit only the
        representatives, so ``classify`` never lists ``I``."""
        from repro.solvability.theorem import classify
        from repro.validity import property as property_module

        def refuse(*args):
            raise AssertionError("enumerated I")

        monkeypatch.setattr(property_module, "enumerate_input_configs", refuse)
        for name in sorted(ANONYMOUS_BUILDERS):
            classify(ANONYMOUS_BUILDERS[name](6, 2, (0, 1)))
        with pytest.raises(AssertionError, match="enumerated I"):
            classify(byzantine_broadcast_problem(6, 2))

    def test_broadcast_forced_anonymous_disagrees(self):
        """Mutation: sender validity reads a pid, so the multiset path
        must not be taken for it — forcing it is caught."""
        problem = dataclasses.replace(
            byzantine_broadcast_problem(3, 1), anonymous=True
        )
        assert path_disagreements(problem) != []

    def test_non_anonymous_problems_keep_the_configuration_path(self):
        problem = byzantine_broadcast_problem(3, 1)
        assert not problem.anonymous
        report = containment_condition(problem)
        assert list(report.admissible_sets) == list(problem.input_configs())

    def test_representatives_are_one_per_multiset(self):
        problem = strong_consensus_problem(3, 1)  # cached() keeps the marker
        assert problem.anonymous
        assert [config.pairs for config in problem.representatives()] == [
            tuple(enumerate(values))
            for values in ((0, 0), (0, 1), (1, 1),
                           (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
        ]

    def test_gamma_maps_through_the_representative(self):
        problem = strong_consensus_problem(5, 2)
        gamma = containment_condition(problem).gamma_fn()
        scattered = InputConfig.from_mapping(5, 2, {1: 1, 3: 0, 4: 1})
        assert scattered not in gamma.table
        assert gamma(scattered) == gamma(
            InputConfig.from_mapping(5, 2, {0: 0, 1: 1, 2: 1})
        )
        for foreign in (
            InputConfig.from_mapping(5, 1, {0: 0, 1: 1, 2: 1, 3: 1}),
            InputConfig.from_mapping(5, 2, {0: 0, 1: 2, 2: 1}),
        ):
            with pytest.raises(KeyError, match="not defined"):
                gamma(foreign)
