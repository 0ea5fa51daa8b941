"""Validity properties and agreement problems (§4.1).

A validity property is a function ``val : I → 2^{V_O} \\ {∅}`` mapping each
input configuration to its admissible decisions.  A specific agreement
problem — the "*val*-agreement problem" — is fully determined by its
validity property, which also encodes ``n``, ``t``, ``V_I`` and ``V_O``.

:class:`AgreementProblem` bundles a validity property with finite,
enumerable value domains, which is what the solvability decision procedure
(Theorem 4) operates on.

A problem is *anonymous* when its ``val`` reads only the proposal
multiset, as weak, strong and correct-proposal validity do.  ``val``
cannot tell apart two configurations with the same multiset, so the
analyses (triviality and the containment condition) visit one
:meth:`~AgreementProblem.representative` per multiset — pids ``0..s-1``
with the proposals in ``V_I`` order — instead of all of ``I``: for
binary values O(n·t) configurations instead of ``Σ C(n,s)·2^s``.  Only
the standard builders whose ``val`` is anonymous set the marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from repro.validity.input_config import (
    InputConfig,
    enumerate_input_configs,
    enumerate_multiset_configs,
)
from repro.types import Payload, validate_system_size

ValidityFn = Callable[[InputConfig], frozenset[Payload]]
"""The raw ``val`` function: configuration → non-empty admissible set."""


@dataclass(frozen=True)
class AgreementProblem:
    """A specific Byzantine agreement problem (the "val-agreement" problem).

    Attributes:
        name: display name.
        n: system size.
        t: corruption budget.
        input_values: the finite proposal domain ``V_I``.
        output_values: the finite decision domain ``V_O``.
        validity: the ``val`` function.
        anonymous: whether ``val`` reads only the proposal multiset,
            so configurations with equal multisets have equal ``val``.
            The analyses then visit one representative per multiset.
    """

    name: str
    n: int
    t: int
    input_values: tuple[Payload, ...]
    output_values: tuple[Payload, ...]
    validity: ValidityFn = field(repr=False)
    anonymous: bool = False

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        if not self.input_values:
            raise ValueError("V_I must be non-empty")
        if not self.output_values:
            raise ValueError("V_O must be non-empty")
        if len(set(self.input_values)) != len(self.input_values):
            raise ValueError("V_I contains duplicates")
        if len(set(self.output_values)) != len(self.output_values):
            raise ValueError("V_O contains duplicates")

    def admissible(self, config: InputConfig) -> frozenset[Payload]:
        """``val(c)``, checked to be a non-empty subset of ``V_O``.

        Raises:
            ValueError: if the validity function returns an empty set or
                values outside ``V_O`` — both make ``val`` ill-formed
                (§4.1 requires ``val(c) ≠ ∅``).
        """
        return self._well_formed(config, self.validity(config))

    def admissible_once(self, config: InputConfig) -> frozenset[Payload]:
        """:meth:`admissible` for a walk that asks about ``config`` once.

        It calls ``val`` past the memo :func:`cached` puts on it (the
        memo's ``__wrapped__``), so it pays neither the memo's hash of
        ``config`` nor its entry; the checks are the same.
        """
        validity = getattr(self.validity, "__wrapped__", self.validity)
        return self._well_formed(config, validity(config))

    def _well_formed(
        self, config: InputConfig, admissible: frozenset[Payload]
    ) -> frozenset[Payload]:
        if not admissible:
            raise ValueError(
                f"{self.name}: val(c) is empty for {config!r}"
            )
        extraneous = admissible - frozenset(self.output_values)
        if extraneous:
            raise ValueError(
                f"{self.name}: val(c) leaves V_O: {sorted(map(repr, extraneous))}"
            )
        return admissible

    def input_configs(self) -> Iterable[InputConfig]:
        """Enumerate ``I`` for this problem's domains."""
        return enumerate_input_configs(self.n, self.t, self.input_values)

    def representatives(self) -> Iterable[InputConfig]:
        """One configuration per class of ``I`` that ``val`` cannot split.

        For an anonymous problem, each proposal multiset's
        :meth:`representative`; otherwise all of ``I``.  Either way the
        order is by ascending size, as :meth:`input_configs` lists it.
        """
        if self.anonymous:
            return enumerate_multiset_configs(
                self.n, self.t, self.input_values
            )
        return self.input_configs()

    def representative(self, config: InputConfig) -> InputConfig:
        """The configuration of :meth:`representatives` standing for ``config``.

        For an anonymous problem, ``config``'s proposals in ``V_I`` order
        on pids ``0..s-1``; otherwise ``config`` itself.

        Raises:
            KeyError: for an anonymous problem, if ``config`` holds a
                proposal outside ``V_I``.
        """
        if not self.anonymous:
            return config
        rank = {value: index for index, value in enumerate(self.input_values)}
        ordered = sorted(config.proposals_multiset(), key=rank.__getitem__)
        return InputConfig(
            n=config.n, t=config.t, pairs=tuple(enumerate(ordered))
        )

    def always_admissible(self) -> frozenset[Payload]:
        """``∩_{c ∈ I} val(c)`` — the set of always-admissible decisions.

        Non-empty exactly when the problem is *trivial* (§4.1): a value in
        this set can be decided with zero communication.  The walk visits
        :meth:`representatives`, which for an anonymous problem meets
        every ``val`` value of ``I`` without enumerating it.
        """
        common: frozenset[Payload] | None = None
        for config in self.representatives():
            admissible = self.admissible(config)
            common = (
                admissible if common is None else common & admissible
            )
            if not common:
                return frozenset()
        return common if common is not None else frozenset()

    def is_trivial(self) -> bool:
        """Whether some decision is admissible in every configuration."""
        return bool(self.always_admissible())

    def check_decision(
        self, config: InputConfig, decision: Payload
    ) -> bool:
        """Whether ``decision`` satisfies ``val`` for ``config``.

        The check an execution-level test applies to each correct
        process's decision (the "satisfying validity" clause of §4.1).
        """
        return decision in self.admissible(config)


def tabulate(problem: AgreementProblem) -> dict[InputConfig, frozenset[Payload]]:
    """Materialize ``val`` as a table over all of ``I`` (small instances)."""
    return {
        config: problem.admissible(config)
        for config in problem.input_configs()
    }


def problem_from_table(
    name: str,
    n: int,
    t: int,
    input_values: Sequence[Payload],
    output_values: Sequence[Payload],
    table: dict[InputConfig, frozenset[Payload]],
) -> AgreementProblem:
    """An :class:`AgreementProblem` backed by an explicit table.

    Useful for enumerating *arbitrary* validity properties in the
    solvability experiments (E5): any assignment of admissible sets is a
    problem.
    """
    missing = object()

    def validity(config: InputConfig) -> frozenset[Payload]:
        admissible = table.get(config, missing)
        if admissible is missing:
            raise KeyError(f"no table entry for {config!r}")
        return admissible  # type: ignore[return-value]

    return AgreementProblem(
        name=name,
        n=n,
        t=t,
        input_values=tuple(input_values),
        output_values=tuple(output_values),
        validity=validity,
    )


def cached(problem: AgreementProblem) -> AgreementProblem:
    """A copy of ``problem`` whose ``val`` is memoized.

    The containment-condition decision evaluates ``val`` at most once per
    configuration, so it calls ``val`` past the memo
    (:meth:`AgreementProblem.admissible_once`).  Other callers
    re-evaluate it:
    :func:`~repro.solvability.cc.verify_gamma` once per containing
    configuration, :meth:`AgreementProblem.always_admissible` (and so
    ``triviality_report``) in a second walk over the representatives
    next to the CC pass in ``classify``, and
    :meth:`AgreementProblem.check_decision` once per correct process in
    execution tests.  The memo makes each repeat a dictionary lookup.
    The copy keeps every other field, the ``anonymous`` marker included.
    """
    return replace(
        problem, validity=lru_cache(maxsize=None)(problem.validity)
    )
