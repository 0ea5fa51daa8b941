"""Violation witnesses: the lower bound's constructive output.

When the driver breaks a sub-quadratic weak consensus candidate, it does
not merely assert failure — it hands back a :class:`ViolationWitness`: a
concrete execution with at most ``t`` omission faults in which the
candidate demonstrably violates Termination, Agreement or Weak Validity
*among correct processes*.  :func:`verify_witness` re-checks everything
from scratch:

1. the execution satisfies every condition of the formal model (A.1.6);
2. every behavior in it is a genuine run of the candidate's state machine
   under some omission pattern (behavior condition 7, via replay);
3. the claimed property breach holds for the claimed correct processes.

A verified witness is inter-subjective evidence: any third party can
re-run the checks against the candidate's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ModelViolation
from repro.sim.execution import Execution, check_execution, check_transitions
from repro.sim.process import ProcessFactory
from repro.types import Payload, ProcessId


class ViolationKind(Enum):
    """Which weak-consensus property the witness breaks."""

    AGREEMENT = "agreement"
    TERMINATION = "termination"
    WEAK_VALIDITY = "weak-validity"


@dataclass(frozen=True)
class ViolationWitness:
    """A machine-checkable counterexample execution.

    Attributes:
        kind: the violated property.
        execution: the offending execution (≤ t omission faults).
        culprit: the correct process exhibiting the violation (the
            undecided process for Termination; one side for Agreement; the
            wrongly-deciding process for Weak Validity).
        counterpart: for Agreement, the other correct process; otherwise
            ``None``.
        note: a human-readable account of how the witness was built
            (which lemma's construction produced it).
    """

    kind: ViolationKind
    execution: Execution
    culprit: ProcessId
    counterpart: ProcessId | None = None
    note: str = ""

    def summary(self) -> str:
        """One line for reports."""
        decisions = {
            self.culprit: self.execution.decision(self.culprit)
        }
        if self.counterpart is not None:
            decisions[self.counterpart] = self.execution.decision(
                self.counterpart
            )
        return (
            f"{self.kind.value} violation: faulty="
            f"{sorted(self.execution.faulty)} decisions={decisions} "
            f"({self.note})"
        )


def verify_witness(
    witness: ViolationWitness, factory: ProcessFactory
) -> None:
    """Re-derive the witness's claim from scratch (see module docstring).

    Raises:
        ModelViolation: if any check fails — i.e. the witness is bogus.
    """
    execution = witness.execution
    check_execution(execution)
    check_transitions(execution, factory)
    correct = execution.correct
    if witness.culprit not in correct:
        raise ModelViolation(
            f"culprit p{witness.culprit} is not correct in the witness"
        )
    culprit_decision = execution.decision(witness.culprit)
    if witness.kind is ViolationKind.TERMINATION:
        if culprit_decision is not None:
            raise ModelViolation(
                f"claimed non-termination, but p{witness.culprit} "
                f"decided {culprit_decision!r}"
            )
        return
    if witness.kind is ViolationKind.AGREEMENT:
        if witness.counterpart is None:
            raise ModelViolation("agreement witness needs a counterpart")
        if witness.counterpart not in correct:
            raise ModelViolation(
                f"counterpart p{witness.counterpart} is not correct"
            )
        other_decision = execution.decision(witness.counterpart)
        if culprit_decision is None or other_decision is None:
            raise ModelViolation(
                "agreement witness has an undecided party "
                "(use a termination witness instead)"
            )
        if culprit_decision == other_decision:
            raise ModelViolation(
                f"claimed disagreement, but both decided "
                f"{culprit_decision!r}"
            )
        return
    # Weak Validity: all processes correct, unanimous proposal, culprit
    # decided something else.
    if execution.faulty:
        raise ModelViolation(
            "weak-validity witness must be fault-free "
            "(the property binds only then)"
        )
    proposals = set(execution.proposals().values())
    if len(proposals) != 1:
        raise ModelViolation(
            "weak-validity witness must have unanimous proposals, got "
            f"{sorted(map(repr, proposals))}"
        )
    unanimous: Payload = next(iter(proposals))
    if culprit_decision == unanimous:
        raise ModelViolation(
            f"claimed weak-validity violation, but p{witness.culprit} "
            f"decided the unanimous proposal {unanimous!r}"
        )
