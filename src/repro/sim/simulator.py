"""The synchronous round simulator (§2, A.1).

Computation unfolds in synchronous rounds.  In each round every process
(1) performs local computation, (2) sends messages, and (3) receives the
messages sent to it in that round.  The simulator drives deterministic
:class:`~repro.sim.process.Process` machines under a static
:class:`~repro.sim.adversary.Adversary` and records a full
:class:`~repro.sim.execution.Execution` trace in the Appendix-A formalism.

The round loop itself lives in :class:`~repro.sim.engine.RoundEngine`;
this module wires the engine to the standard observers — a
:class:`~repro.sim.engine.TraceRecorder` for the execution record, an
:class:`~repro.sim.engine.IncrementalChecker` when validation is on, and
an :class:`~repro.sim.engine.EarlyStopPolicy` when the caller allows
halting at the decision round — and keeps the historical entry points
(:func:`run_execution` and friends) stable.

Infinite executions are approximated by a finite horizon chosen by the
caller; every protocol in :mod:`repro.protocols` declares a sound
``max_rounds(n, t)`` bound, so "ran for the horizon without deciding"
witnesses a genuine termination failure for these deterministic protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ProtocolViolation
from repro.sim.adversary import Adversary, NoFaults
from repro.sim.engine import (
    EarlyStopPolicy,
    IncrementalChecker,
    RoundEngine,
    RoundObserver,
    TraceRecorder,
)
from repro.sim.execution import Execution
from repro.sim.process import Process, ProcessFactory
from repro.types import Payload, validate_system_size


@dataclass(frozen=True)
class SimulationConfig:
    """Static parameters of one simulated execution.

    Attributes:
        n: number of processes.
        t: corruption budget (the adversary may corrupt at most ``t``).
        rounds: the finite horizon to simulate.
        check: whether to validate the produced execution against the
            Appendix-A model conditions (cheap insurance; on by default).
            Live runs validate round-by-round via
            :class:`~repro.sim.engine.IncrementalChecker`.
    """

    n: int
    t: int
    rounds: int
    check: bool = True

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        if self.rounds < 1:
            raise ValueError(f"need at least one round, got {self.rounds}")


def build_machines(
    config: SimulationConfig,
    proposals: Sequence[Payload],
    factory: ProcessFactory,
    adversary: Adversary,
) -> list[Process]:
    """Instantiate the n machines, applying Byzantine substitutions.

    Honest machines come from ``factory``; for each corrupted process the
    adversary may substitute an arbitrary machine (Byzantine model) or
    leave the honest one (omission model).
    """
    if len(proposals) != config.n:
        raise ValueError(
            f"expected {config.n} proposals, got {len(proposals)}"
        )
    adversary.validate_budget(config.n, config.t)
    machines: list[Process] = []
    for pid in range(config.n):
        proposal = proposals[pid]
        machine: Process | None = None
        if pid in adversary.corrupted:
            machine = adversary.corrupt_machine(pid, factory, proposal)
        if machine is None:
            machine = factory(pid, proposal)
        if machine.pid != pid:
            raise ProtocolViolation(
                f"factory built machine for p{machine.pid}, wanted p{pid}"
            )
        machines.append(machine)
    return machines


def run_execution(
    config: SimulationConfig,
    proposals: Sequence[Payload],
    factory: ProcessFactory,
    adversary: Adversary | None = None,
    *,
    observers: Sequence[RoundObserver] = (),
    early_stop: bool = False,
) -> Execution:
    """Simulate one execution and return its full trace.

    Args:
        config: system size, corruption budget and horizon.
        proposals: proposal of each process, indexed by id.  (Proposals of
            Byzantine-replaced processes are passed to the adversary, which
            may ignore them.)
        factory: builds the honest machine for a ``(pid, proposal)`` pair.
        adversary: the static adversary; ``None`` means no faults.
        observers: extra :class:`RoundObserver` instances attached to the
            engine (e.g. a
            :class:`~repro.obs.tracer.RoundTraceObserver`).
        early_stop: halt once every correct process has decided instead of
            running to the horizon.  The truncated execution is a prefix
            of the full run with identical decisions; message complexity
            may differ for protocols that keep sending after deciding.

    Returns:
        The recorded :class:`Execution`, validated against the model's
        execution conditions when ``config.check`` is set.
    """
    adversary = adversary if adversary is not None else NoFaults()
    machines = build_machines(config, proposals, factory, adversary)
    recorder = TraceRecorder()
    attached: list[RoundObserver] = [recorder]
    if config.check:
        attached.append(IncrementalChecker())
    if early_stop:
        attached.append(EarlyStopPolicy(scope="correct"))
    attached.extend(observers)
    engine = RoundEngine(config, machines, adversary, attached)
    engine.run()
    return recorder.execution()
