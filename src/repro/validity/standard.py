"""The standard validity properties as :class:`AgreementProblem` builders.

Covers every flavour the paper names (§1, §4, §5):

* **Weak Validity** — weak consensus [28, 37, 79, 101]: if all processes
  are correct and unanimous, their value must be decided.
* **Strong Validity** — strong consensus [37, 45, 78]: if all *correct*
  processes are unanimous, their value must be decided.
* **Sender Validity** — Byzantine broadcast [11, 88, 96, 98]: a correct
  designated sender's value must be decided.
* **IC-Validity** — interactive consistency [18, 54, 78]: the decided
  vector contains every correct process's proposal
  (``IC-Validity(c) = {c' ∈ I_n | c' ⊇ c}``, §5.2.2).
* **Correct-Proposal Validity** — the decided value was proposed by a
  correct process (a common blockchain-adjacent strengthening; exercises
  a non-obvious containment-condition boundary).
* **External Validity** (§4.3) — the decided value satisfies a global
  predicate.  As the paper notes, the formalism classifies it as trivial
  (any fixed valid value is admissible everywhere); the builder exists to
  demonstrate exactly that — see experiment E8 for how Corollary 1 still
  applies to concrete algorithms.
* **Trivial / Constant** — baseline trivial problems for the classifier.

Weak, strong, correct-proposal, external and constant validity read only
the proposal multiset, so their builders mark the problem ``anonymous``
(see :mod:`repro.validity.property`); sender validity, IC-Validity and
vector consensus read process ids and do not.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.validity.input_config import (
    InputConfig,
    enumerate_full_configs,
)
from repro.validity.property import AgreementProblem, cached
from repro.types import Payload, ProcessId


def _unanimous(values: list[Payload]) -> Payload | None:
    """The single value of a non-empty unanimous list, else ``None``."""
    unique = set(values)
    if len(unique) == 1:
        return values[0]
    return None


def weak_consensus_problem(
    n: int, t: int, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """Weak consensus: binds only fully-correct unanimous configurations."""
    domain = tuple(values)

    def validity(config: InputConfig) -> frozenset[Payload]:
        if config.is_full:
            unanimous = _unanimous(config.proposals_multiset())
            if unanimous is not None:
                return frozenset([unanimous])
        return frozenset(domain)

    return cached(
        AgreementProblem(
            name="weak-consensus",
            n=n,
            t=t,
            input_values=domain,
            output_values=domain,
            validity=validity,
            anonymous=True,
        )
    )


def strong_consensus_problem(
    n: int, t: int, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """Strong consensus: binds on unanimity of the correct processes."""
    domain = tuple(values)

    def validity(config: InputConfig) -> frozenset[Payload]:
        unanimous = _unanimous(config.proposals_multiset())
        if unanimous is not None:
            return frozenset([unanimous])
        return frozenset(domain)

    return cached(
        AgreementProblem(
            name="strong-consensus",
            n=n,
            t=t,
            input_values=domain,
            output_values=domain,
            validity=validity,
            anonymous=True,
        )
    )


def byzantine_broadcast_problem(
    n: int,
    t: int,
    sender: ProcessId = 0,
    values: Sequence[Payload] = (0, 1),
    sender_faulty_marker: Payload = "SENDER-FAULTY",
) -> AgreementProblem:
    """Byzantine broadcast: Sender Validity for a designated ``sender``.

    ``V_O`` adds a marker decided (optionally) when the sender is faulty.
    """
    domain = tuple(values)
    outputs = domain + (sender_faulty_marker,)

    def validity(config: InputConfig) -> frozenset[Payload]:
        proposal = config.proposal(sender)
        if proposal is not None:
            return frozenset([proposal])
        return frozenset(outputs)

    return cached(
        AgreementProblem(
            name=f"byzantine-broadcast(sender={sender})",
            n=n,
            t=t,
            input_values=domain,
            output_values=outputs,
            validity=validity,
        )
    )


def interactive_consistency_problem(
    n: int, t: int, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """Interactive consistency: decide a full configuration containing c.

    The paper takes ``V_O = I_n``; a full configuration is isomorphic to
    an n-tuple of proposals, and the concrete IC protocols decide exactly
    such tuples, so the output domain here is the tuples.
    """
    domain = tuple(values)
    full_vectors = tuple(
        tuple(config.proposals_multiset())
        for config in enumerate_full_configs(n, t, domain)
    )

    def validity(config: InputConfig) -> frozenset[Payload]:
        assigned = config.as_mapping()
        return frozenset(
            vector
            for vector in full_vectors
            if all(
                vector[pid] == value for pid, value in assigned.items()
            )
        )

    return cached(
        AgreementProblem(
            name="interactive-consistency",
            n=n,
            t=t,
            input_values=domain,
            output_values=full_vectors,
            validity=validity,
        )
    )


def correct_proposal_problem(
    n: int, t: int, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """The decided value must be some correct process's proposal.

    A natural strengthening whose containment condition fails exactly when
    a full configuration exists in which no value reaches multiplicity
    ``t+1`` — e.g. binary with ``n <= 2t`` (compare Theorem 5's boundary).
    """
    domain = tuple(values)

    def validity(config: InputConfig) -> frozenset[Payload]:
        return frozenset(config.proposals_multiset())

    return cached(
        AgreementProblem(
            name="correct-proposal",
            n=n,
            t=t,
            input_values=domain,
            output_values=domain,
            validity=validity,
            anonymous=True,
        )
    )


ABSENT = "⊥-absent"
"""The ⊥ marker in vector-consensus decisions (a slot left empty)."""


def vector_consensus_problem(
    n: int, t: int, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """Vector consensus ([38] in §6): agree on ≥ n-t proposals.

    Decisions are n-slot vectors over ``V_I ∪ {ABSENT}`` with at least
    ``n - t`` filled slots, where every *correct* process's slot holds
    either its true proposal or ``ABSENT``.  Faulty slots are
    unconstrained (a Byzantine process may "propose" anything).

    Satisfies the containment condition (Γ = the IC vector itself), so it
    is authenticated-solvable for any ``t < n`` — and, being non-trivial,
    it is subject to the Ω(t²) bound like everything else.
    """
    import itertools

    domain = tuple(values)
    slot_values = domain + (ABSENT,)
    vectors = tuple(
        vector
        for vector in itertools.product(slot_values, repeat=n)
        if sum(1 for slot in vector if slot != ABSENT) >= n - t
    )

    def validity(config: InputConfig) -> frozenset[Payload]:
        assigned = config.as_mapping()
        return frozenset(
            vector
            for vector in vectors
            if all(
                vector[pid] in (value, ABSENT)
                for pid, value in assigned.items()
            )
        )

    return cached(
        AgreementProblem(
            name="vector-consensus",
            n=n,
            t=t,
            input_values=domain,
            output_values=vectors,
            validity=validity,
        )
    )


def external_validity_problem(
    n: int,
    t: int,
    values: Sequence[Payload],
    predicate: Callable[[Payload], bool],
) -> AgreementProblem:
    """External Validity in the §4.1 formalism — provably trivial (§4.3).

    ``val(c)`` is the constant set of predicate-satisfying values, so any
    fixed valid value is always admissible and
    :meth:`AgreementProblem.is_trivial` returns ``True``.  The paper's
    point (§4.3): the formalism cannot see that deciding a transaction
    requires *knowing* it; Corollary 1 handles the concrete-algorithm
    case instead.
    """
    domain = tuple(values)
    valid_values = frozenset(v for v in domain if predicate(v))
    if not valid_values:
        raise ValueError("the predicate admits no value in the domain")

    def validity(config: InputConfig) -> frozenset[Payload]:
        return valid_values

    return AgreementProblem(
        name="external-validity",
        n=n,
        t=t,
        input_values=domain,
        output_values=domain,
        validity=validity,
        anonymous=True,
    )


def constant_problem(
    n: int, t: int, value: Payload, values: Sequence[Payload] = (0, 1)
) -> AgreementProblem:
    """The archetypal trivial problem: ``value`` is always admissible."""
    domain = tuple(values)
    if value not in domain:
        raise ValueError(f"{value!r} not in the output domain")

    def validity(config: InputConfig) -> frozenset[Payload]:
        return frozenset([value])

    return AgreementProblem(
        name=f"constant({value!r})",
        n=n,
        t=t,
        input_values=domain,
        output_values=domain,
        validity=validity,
        anonymous=True,
    )


STANDARD_PROBLEMS = (
    weak_consensus_problem,
    strong_consensus_problem,
    byzantine_broadcast_problem,
    interactive_consistency_problem,
    correct_proposal_problem,
)
"""The non-trivial standard builders, for sweep harnesses (E5)."""
