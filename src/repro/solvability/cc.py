"""The containment condition and the Γ function (Definition 3, §5.2).

A non-trivial agreement problem satisfies the *containment condition* (CC)
iff there is a computable ``Γ : I → V_O`` with

    ``Γ(c) ∈ ∩_{c' ∈ Cnt(c)} val(c')``  for every ``c ∈ I``.

For the finite instances this library analyses, CC is decidable by
computing the Lemma-7 intersection at every configuration.
:func:`containment_condition` computes it bottom-up rather than by
enumerating ``Cnt(c)`` afresh: above the ``n - t`` floor,

    ``Cnt(c) = {c} ∪ ⋃_{p ∈ π(c)} Cnt(c - p)``,

because every proper sub-configuration of ``c`` omits some process ``p``
and is therefore contained in ``c - p``.  So the intersection at ``c`` is
``val(c)`` met with the intersections already computed for its ``|c|``
one-smaller children — the same set Definition 3 names, for the same
configurations.  It returns the full per-configuration analysis and, when
CC holds, a concrete Γ (as a dictionary) that the Algorithm-2 reduction
then *executes* on top of interactive consistency.
:func:`~repro.validity.containment.admissible_under_containment` remains
the literal per-configuration definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import UnsolvableProblemError
from repro.validity.input_config import InputConfig
from repro.validity.property import AgreementProblem
from repro.types import Payload


@dataclass(frozen=True)
class CCReport:
    """Full containment-condition analysis of one problem.

    Attributes:
        problem_name: the analysed problem.
        holds: whether CC is satisfied.
        gamma: when CC holds, a concrete Γ over the enumerated ``I``
            (deterministic representative of each intersection).
        admissible_sets: the Lemma-7 intersection at every configuration.
        failures: configurations whose intersection is empty (non-empty
            exactly when CC fails).
    """

    problem_name: str
    holds: bool
    gamma: Mapping[InputConfig, Payload] = field(default_factory=dict)
    admissible_sets: Mapping[InputConfig, frozenset[Payload]] = field(
        default_factory=dict, repr=False
    )
    failures: tuple[InputConfig, ...] = ()

    def gamma_fn(self) -> "GammaFunction":
        """The Γ as a callable total on the enumerated ``I``.

        Raises:
            UnsolvableProblemError: if CC does not hold.
        """
        if not self.holds:
            raise UnsolvableProblemError(
                f"{self.problem_name} fails the containment condition; "
                f"first failing configuration: {self.failures[0]!r}"
            )
        return GammaFunction(dict(self.gamma))


@dataclass(frozen=True)
class GammaFunction:
    """A concrete Γ: table-backed, total on the enumerated ``I``."""

    table: Mapping[InputConfig, Payload]

    def __call__(self, config: InputConfig) -> Payload:
        try:
            return self.table[config]
        except KeyError as error:
            raise KeyError(
                f"Γ is not defined for {config!r} (outside the enumerated "
                "configuration set — check n, t and the value domain)"
            ) from error


def containment_condition(problem: AgreementProblem) -> CCReport:
    """Decide CC for ``problem`` and construct Γ when it holds.

    The deterministic representative picked for each configuration is the
    ``repr``-least admissible value; any choice function works (Definition
    3 only asks for existence), but determinism keeps executions
    reproducible.

    ``problem.input_configs()`` lists ``I`` by ascending size, so each
    configuration's children are decided before it.  ``val(c)`` is
    evaluated exactly when the children's intersection is non-empty (or
    ``|c| = n - t``), which is when the per-configuration definition
    reaches ``c`` too: an ill-formed ``val`` raises the same
    ``ValueError`` at the same configuration.
    """
    gamma: dict[InputConfig, Payload] = {}
    sets: dict[InputConfig, frozenset[Payload]] = {}
    by_pairs: dict[tuple, frozenset[Payload]] = {}
    failures: list[InputConfig] = []
    floor = problem.n - problem.t
    for config in problem.input_configs():
        pairs = config.pairs
        admissible: frozenset[Payload] | None = None
        if len(pairs) > floor:
            for index in range(len(pairs)):
                child = by_pairs[pairs[:index] + pairs[index + 1:]]
                admissible = (
                    child if admissible is None else admissible & child
                )
                if not admissible:
                    break
        if admissible is None:
            admissible = problem.admissible(config)
        elif admissible:
            admissible = admissible & problem.admissible(config)
        by_pairs[pairs] = sets[config] = admissible
        if admissible:
            gamma[config] = min(admissible, key=repr)
        else:
            failures.append(config)
    holds = not failures
    return CCReport(
        problem_name=problem.name,
        holds=holds,
        gamma=gamma if holds else {},
        admissible_sets=sets,
        failures=tuple(failures),
    )


def satisfies_cc(problem: AgreementProblem) -> bool:
    """Shorthand: whether the containment condition holds."""
    return containment_condition(problem).holds


def verify_gamma(
    problem: AgreementProblem,
    gamma: Mapping[InputConfig, Payload] | GammaFunction,
) -> list[str]:
    """Check a claimed Γ against Definition 3; return violations.

    Used by property-based tests: a Γ is valid iff for every enumerated
    ``c``, ``Γ(c)`` is admissible under every configuration ``c``
    contains.
    """
    lookup = (
        gamma.table if isinstance(gamma, GammaFunction) else gamma
    )
    violations: list[str] = []
    for config in problem.input_configs():
        if config not in lookup:
            violations.append(f"Γ undefined at {config!r}")
            continue
        value = lookup[config]
        for contained in config.containment_set():
            if value not in problem.admissible(contained):
                violations.append(
                    f"Γ({config!r}) = {value!r} inadmissible for "
                    f"contained {contained!r}"
                )
    return violations
