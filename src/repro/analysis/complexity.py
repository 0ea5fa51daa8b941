"""Message-complexity sweeps (experiments E1, E3, E7).

Runs protocols across a range of ``(n, t)`` parameters and workloads,
recording the worst correct-sender message count seen per point.  The
sweeps deliberately include the adversarial scenarios of the lower-bound
argument (group isolations) alongside fault-free runs — the paper's metric
is a worst case over *all* executions, and for several protocols the
fault-free run is not the maximizer.

Every scenario here is fault-free or a Definition-1 isolation, so each
one runs on the mask kernel: the trace is checked with
:func:`~repro.sim.kernel.check_trace` and counted as a popcount over the
correct senders' masks, without building messages or fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.lowerbound.bound import weak_consensus_floor
from repro.lowerbound.partition import canonical_partition
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.base import ProtocolSpec, SpecBuilder
from repro.sim.adversary import Adversary
from repro.sim.kernel import KernelTrace, check_trace, run_kernel
from repro.sim.simulator import SimulationConfig
from repro.types import Payload


@dataclass(frozen=True)
class SweepPoint:
    """One measured parameter point.

    Attributes:
        protocol: the measured protocol's name.
        n, t: parameters.
        worst_messages: max correct-sender messages across the scenarios.
        scenario: which scenario attained the max.
        floor: the ``t²/32`` reference line.
    """

    protocol: str
    n: int
    t: int
    worst_messages: int
    scenario: str

    @property
    def floor(self) -> float:
        return weak_consensus_floor(self.t)

    @property
    def ratio_to_floor(self) -> float:
        floor = self.floor
        if floor == 0:
            return float("inf") if self.worst_messages else 1.0
        return self.worst_messages / floor

    @property
    def ratio_to_t_squared(self) -> float:
        if self.t == 0:
            return float("inf") if self.worst_messages else 0.0
        return self.worst_messages / float(self.t * self.t)


def default_scenarios(
    spec: ProtocolSpec, proposals: Sequence[Payload]
) -> list[tuple[str, Sequence[Payload], Adversary | None]]:
    """The standard scenario battery: fault-free plus group isolations."""
    scenarios: list[
        tuple[str, Sequence[Payload], Adversary | None]
    ] = [("fault-free", proposals, None)]
    if spec.t >= 2:
        partition = canonical_partition(spec.n, spec.t)
        scenarios.append(
            (
                "isolate-B@1",
                proposals,
                isolate_group(partition.group_b, 1),
            )
        )
        mid = max(1, spec.rounds // 2)
        scenarios.append(
            (
                f"isolate-C@{mid}",
                proposals,
                isolate_group(partition.group_c, mid),
            )
        )
    return scenarios


def run_scenario(
    spec: ProtocolSpec,
    proposals: Sequence[Payload],
    adversary: Adversary | None = None,
) -> KernelTrace:
    """One checked kernel run of ``spec`` under ``adversary``.

    Raises:
        ValueError: if ``adversary`` does not compile to masks (only the
            no-fault adversary and group isolations do).
    """
    compiled = compile_omissions(adversary, spec.n)
    if compiled is None:
        raise ValueError(
            f"{type(adversary).__name__} does not compile to masks; "
            "measurement scenarios must be fault-free or isolations"
        )
    config = SimulationConfig(n=spec.n, t=spec.t, rounds=spec.rounds)
    trace = run_kernel(config, proposals, spec.factory, compiled)
    check_trace(trace)
    return trace


def measure_point(
    spec: ProtocolSpec,
    proposal_sets: Iterable[Sequence[Payload]],
) -> SweepPoint:
    """Worst message count for one spec across proposals × scenarios.

    Raises:
        ValueError: if ``proposal_sets`` is empty (there is no worst
            case to report).
    """
    worst = -1
    worst_scenario = "none"
    for proposals in proposal_sets:
        for label, workload, adversary in default_scenarios(
            spec, proposals
        ):
            messages = run_scenario(
                spec, workload, adversary
            ).message_complexity()
            if messages > worst:
                worst = messages
                worst_scenario = label
    if worst < 0:
        raise ValueError(f"no workloads to measure {spec.name} on")
    return SweepPoint(
        protocol=spec.name,
        n=spec.n,
        t=spec.t,
        worst_messages=worst,
        scenario=worst_scenario,
    )


def uniform_workloads(
    n: int, values: Sequence[Payload] = (0, 1)
) -> list[list[Payload]]:
    """The all-same-value workloads (the lower bound's executions)."""
    return [[value] * n for value in values]


def mixed_workload(
    n: int, values: Sequence[Payload] = (0, 1)
) -> list[Payload]:
    """A deterministic round-robin mix of the value domain."""
    return [values[index % len(values)] for index in range(n)]


def sweep(
    builder: SpecBuilder,
    parameters: Iterable[tuple[int, int]],
    *,
    include_mixed: bool = True,
) -> list[SweepPoint]:
    """Measure ``builder`` across parameter points (E1/E7 harness)."""
    points: list[SweepPoint] = []
    for n, t in parameters:
        spec = builder(n, t)
        workloads: list[Sequence[Payload]] = uniform_workloads(n)
        if include_mixed:
            workloads.append(mixed_workload(n))
        points.append(measure_point(spec, workloads))
    return points


def exhaustive_isolation_scan(
    spec: ProtocolSpec,
    proposals: Sequence[Payload],
) -> SweepPoint:
    """Worst message count over *every* single-group isolation round.

    The default scenario battery samples two isolation rounds; this scan
    tries every ``k ∈ [1, rounds]`` for both canonical groups — the
    honest way to approximate the worst case for protocols whose traffic
    depends on when the adversary strikes (e.g. the ring cheater).
    """
    worst = run_scenario(spec, proposals).message_complexity()
    worst_scenario = "fault-free"
    if spec.t >= 2:
        partition = canonical_partition(spec.n, spec.t)
        for group_label, group in (
            ("B", partition.group_b),
            ("C", partition.group_c),
        ):
            for k in range(1, spec.rounds + 1):
                messages = run_scenario(
                    spec, proposals, isolate_group(group, k)
                ).message_complexity()
                if messages > worst:
                    worst = messages
                    worst_scenario = f"isolate-{group_label}@{k}"
    return SweepPoint(
        protocol=spec.name,
        n=spec.n,
        t=spec.t,
        worst_messages=worst,
        scenario=worst_scenario,
    )


def quadratic_parameter_grid(
    max_t: int, *, slack: int = 4, step: int = 4
) -> list[tuple[int, int]]:
    """(n, t) pairs with ``n = t + slack`` — the high-resilience regime.

    The lower bound is about ``t``; holding ``n - t`` constant isolates
    the quadratic term from population effects.
    """
    return [
        (t + slack, t) for t in range(step, max_t + 1, step)
    ]
