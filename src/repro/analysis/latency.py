"""Round-complexity (latency) accounting.

The Dolev–Strong lower bound recalled in §6 ([52]) says ``t + 1`` rounds
are necessary for deterministic Byzantine broadcast in the worst case;
our Dolev–Strong implementation decides in exactly ``t + 1`` and Phase
King in ``3(t + 1)``.  These helpers extract per-process decision rounds
from recorded executions so tests and experiments can assert the latency
profile alongside the message profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.execution import Execution
from repro.types import ProcessId, Round


@dataclass(frozen=True)
class LatencyReport:
    """Decision-round statistics over the correct processes.

    Attributes:
        decision_rounds: round *during* which each correct process
            decided (``None``: undecided within the horizon).
        earliest: the fastest correct decision, or ``None``.
        latest: the slowest correct decision, or ``None``.
    """

    decision_rounds: dict[ProcessId, Round | None]

    @property
    def earliest(self) -> Round | None:
        rounds = [r for r in self.decision_rounds.values() if r]
        return min(rounds) if rounds else None

    @property
    def latest(self) -> Round | None:
        rounds = [r for r in self.decision_rounds.values() if r]
        return max(rounds) if rounds else None

    @property
    def all_decided(self) -> bool:
        """Whether every correct process decided within the horizon."""
        return all(
            round_ is not None
            for round_ in self.decision_rounds.values()
        )

    @classmethod
    def of(cls, execution: Execution) -> "LatencyReport":
        """Measure ``execution``."""
        return cls(
            decision_rounds={
                pid: execution.behavior(pid).decision_round
                for pid in sorted(execution.correct)
            }
        )


def dolev_strong_round_floor(t: int) -> int:
    """The [52] bound: ``t + 1`` rounds are necessary in the worst case."""
    return t + 1
