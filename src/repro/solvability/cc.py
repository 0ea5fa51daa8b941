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

For an *anonymous* problem (``val`` reads only the proposal multiset,
see :mod:`repro.validity.property`) the intersection at ``c`` depends
only on ``c``'s multiset.  That follows by induction on the recurrence:
every child ``c - p`` carries ``c``'s multiset minus one element.  The
same fold then visits one representative per multiset of size
``n - t .. n`` and looks each child up under its own representative, so
binary strong consensus costs O(n·t) configurations instead of all of
``I``.  The report's tables are keyed by the representatives, and Γ maps
any configuration through its representative, so it stays total on ``I``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Mapping

from repro.errors import UnsolvableProblemError
from repro.validity.input_config import InputConfig
from repro.validity.property import AgreementProblem
from repro.types import Payload


@dataclass(frozen=True)
class CCReport:
    """Full containment-condition analysis of one problem.

    The tables hold one entry per configuration the fold visited: all of
    ``I``, or for an anonymous problem one representative per multiset
    (:meth:`~repro.validity.property.AgreementProblem.representatives`).

    Attributes:
        problem_name: the analysed problem.
        holds: whether CC is satisfied.
        representative: maps any configuration to its table key.
        gamma: when CC holds, a concrete Γ over the visited
            configurations (a deterministic pick from each
            intersection).
        admissible_sets: the Lemma-7 intersection at every visited
            configuration.
        failures: visited configurations whose intersection is empty
            (non-empty exactly when CC fails).
    """

    problem_name: str
    holds: bool
    representative: Callable[[InputConfig], InputConfig] = field(
        repr=False, compare=False
    )
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
        return GammaFunction(dict(self.gamma), self.representative)


@dataclass(frozen=True)
class GammaFunction:
    """A concrete Γ: table-backed, total on the enumerated ``I``.

    A configuration is looked up under its ``representative`` — itself,
    or for an anonymous problem its multiset's representative.
    """

    table: Mapping[InputConfig, Payload]
    representative: Callable[[InputConfig], InputConfig] = field(
        repr=False, compare=False
    )

    def __call__(self, config: InputConfig) -> Payload:
        try:
            return self.table[self.representative(config)]
        except KeyError as error:
            raise KeyError(
                f"Γ is not defined for {config!r} (outside the enumerated "
                "configuration set — check n, t and the value domain)"
            ) from error


def _children(key: tuple) -> Iterator[tuple]:
    """The keys of ``c - p`` for every ``p ∈ π(c)``, given ``c``'s pairs."""
    for index in range(len(key)):
        yield key[:index] + key[index + 1:]


def _count_children(key: tuple) -> Iterator[tuple]:
    """The keys of ``c - p`` for every ``p ∈ π(c)``, given ``c``'s
    multiset as counts in ``V_I`` order.

    Dropping any of a value's copies leaves the same multiset, so each
    child is yielded once, in the order the value first occurs in the
    representative.
    """
    for index, count in enumerate(key):
        if count:
            yield key[:index] + (count - 1,) + key[index + 1:]


def _counts(values: tuple) -> Callable[[InputConfig], tuple]:
    """The key of a representative: how often it proposes each of
    ``values``."""

    def key_of(config: InputConfig) -> tuple:
        proposals = tuple(map(itemgetter(1), config.pairs))
        return tuple(map(proposals.count, values))

    return key_of


def containment_condition(problem: AgreementProblem) -> CCReport:
    """Decide CC for ``problem`` and construct Γ when it holds.

    The deterministic pick for each configuration is the
    ``repr``-least admissible value; any choice function works (Definition
    3 only asks for existence), but determinism keeps executions
    reproducible.

    ``problem.representatives()`` lists the visited configurations by
    ascending size, so each configuration's children are decided before
    it.  ``val(c)`` is evaluated exactly when the children's intersection
    is non-empty (or ``|c| = n - t``), which is when the
    per-configuration definition reaches ``c`` too: an ill-formed ``val``
    raises the same ``ValueError`` at the same configuration.  For an
    anonymous problem a configuration is stored under its multiset (how
    often it proposes each value of ``V_I``), so each child is found
    under its own representative's key.
    """
    gamma: dict[InputConfig, Payload] = {}
    sets: dict[InputConfig, frozenset[Payload]] = {}
    by_key: dict[tuple, frozenset[Payload]] = {}
    failures: list[InputConfig] = []
    floor = problem.n - problem.t
    if problem.anonymous:
        key_of = _counts(problem.input_values)
        children = _count_children
    else:
        key_of = attrgetter("pairs")
        children = _children
    for config in problem.representatives():
        key = key_of(config)
        admissible: frozenset[Payload] | None = None
        if len(config.pairs) > floor:
            for child_key in children(key):
                child = by_key[child_key]
                admissible = (
                    child if admissible is None else admissible & child
                )
                if not admissible:
                    break
        if admissible is None:
            admissible = problem.admissible_once(config)
        elif admissible:
            admissible = admissible & problem.admissible_once(config)
        by_key[key] = sets[config] = admissible
        if admissible:
            gamma[config] = min(admissible, key=repr)
        else:
            failures.append(config)
    holds = not failures
    return CCReport(
        problem_name=problem.name,
        holds=holds,
        representative=problem.representative,
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
    contains.  A mapping is read as a :class:`GammaFunction` would read
    it, through ``problem.representative``.
    """
    if not isinstance(gamma, GammaFunction):
        gamma = GammaFunction(gamma, problem.representative)
    violations: list[str] = []
    for config in problem.input_configs():
        try:
            value = gamma(config)
        except KeyError:
            violations.append(f"Γ undefined at {config!r}")
            continue
        for contained in config.containment_set():
            if value not in problem.admissible(contained):
                violations.append(
                    f"Γ({config!r}) = {value!r} inadmissible for "
                    f"contained {contained!r}"
                )
    return violations
