"""Seeded operation lists for the four end-to-end workloads.

Pure functions of ``(workload, seed, count)``: the same arguments give
the same list, and nothing here imports the program, so the inputs stay
fixed while the program under test changes.

Attack cells are drawn in shuffled *blocks* that hold every
``(cheater, t)`` pair once, and service submissions in shuffled blocks
that hold the kinds in their stated shares.  A time-bounded run stops
at a block boundary, so it executes whole blocks and keeps the mix
whatever the speed of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CHEATERS = ("silent", "leader-echo", "committee", "ring-token",
            "seeded-committee")
"""The sub-quadratic cheaters of ``repro.experiments.CHEATERS``."""

MATRIX_TS = tuple(range(8, 41, 4))
"""``t`` values of the certified-matrix and traced-attack cells."""

SERVICE_TS = tuple(range(6, 29))
"""``t`` values of the service's fresh attack jobs."""

N_SLACK = 4
"""Every attack cell has ``n = t + 4 + U{0..N_SLACK}``."""

COUNTS = {
    "paper_all": 16,
    "cheater_matrix": 900,
    "attack_traced": 1800,
    "service_mixed": 880,
}
"""List lengths: at least one and a half times what the program this
benchmark was written against runs in a 20 s run on a 2-core machine,
so a faster program still fills the run.  ``service_mixed`` is capped
by its pools."""

WORKLOADS = tuple(COUNTS)

BLOCKS = {
    "paper_all": 1,
    "cheater_matrix": len(CHEATERS) * len(MATRIX_TS),
    "attack_traced": len(CHEATERS) * len(MATRIX_TS),
    "service_mixed": 20,
}
"""Ops per block: a time-bounded run stops only between blocks."""

SERVICE_BLOCK = (("attack",) * 11 + ("measure",) * 3 + ("classify",) * 2
                 + ("replay",) * 4)
"""One block of service submissions: 55% fresh certified attacks, 15%
``measure``, 10% ``classify``, 20% resubmissions of done keys."""

MEASURE_BUILDERS = ("correct", "naive-flooding", "dolev-strong", "ic")
PROBLEMS = ("weak", "strong", "broadcast", "ic", "correct-proposal")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is ``"all"`` (one ``repro all`` process), ``"attack"``,
    ``"measure"`` or ``"classify"`` (a cell or a fresh service job) or
    ``"replay"`` (resubmission of the earlier fresh job ``(builder, n,
    t)`` of kind ``of``).
    """

    kind: str
    builder: str = ""
    n: int = 0
    t: int = 0
    of: str = ""


def attack_pool() -> list[tuple[str, int, int]]:
    """Every fresh certified attack the service may receive."""
    return [
        (builder, t + 4 + slack, t)
        for builder in CHEATERS
        for t in SERVICE_TS
        for slack in range(N_SLACK + 1)
    ]


def measure_pool() -> list[tuple[str, int, int]]:
    """Every fresh ``measure`` job the service may receive."""
    pool = [
        (builder, n, t)
        for builder in MEASURE_BUILDERS
        for t in range(1, 7)
        for n in range(t + 2, t + 8)
    ]
    # the King algorithm needs n > 3t
    pool += [
        ("phase-king", n, t)
        for t in range(1, 4)
        for n in range(3 * t + 1, 3 * t + 5)
    ]
    return pool


def classify_pool() -> list[tuple[str, int, int]]:
    """Every fresh ``classify`` job the service may receive."""
    sizes = [(n, t) for n in range(2, 8) for t in range(1, min(4, n - 1) + 1)]
    sizes.remove((7, 4))  # 0.4-0.8 s a job
    sizes.append((8, 1))
    return [(problem, n, t) for problem in PROBLEMS for n, t in sizes]


SERVICE_WARM_UP = (
    Op("attack", "silent", 8, 4),
    Op("measure", "correct", 10, 1),
    Op("classify", "weak", 8, 2),
)
"""One job of each fresh kind, outside every pool: run before timing
starts, so the server has imported what its jobs need."""

POOLS = {
    "attack": attack_pool,
    "measure": measure_pool,
    "classify": classify_pool,
}


def _cells(rng: random.Random, count: int) -> list[Op]:
    """Blocks of every ``(cheater, t)`` pair; each pair's slack runs
    through a fresh permutation of ``0..N_SLACK`` every five blocks."""
    pairs = [(builder, t) for builder in CHEATERS for t in MATRIX_TS]
    slacks: dict[tuple[str, int], list[int]] = {pair: [] for pair in pairs}
    ops: list[Op] = []
    while len(ops) < count:
        block = list(pairs)
        rng.shuffle(block)
        for builder, t in block:
            if not slacks[builder, t]:
                slacks[builder, t] = rng.sample(range(N_SLACK + 1),
                                                N_SLACK + 1)
            n = t + 4 + slacks[builder, t].pop()
            ops.append(Op("attack", builder, n, t))
    return ops[:count]


def _turns(rng: random.Random, groups: list[list]) -> list:
    """Every element of ``groups``, the groups taking turns in a fresh
    random order each round, each yielding its elements in order."""
    queues = [list(reversed(group)) for group in groups]
    order = []
    while any(queues):
        turn = [queue for queue in queues if queue]
        rng.shuffle(turn)
        order.extend(queue.pop() for queue in turn)
    return order


def _draw(
    rng: random.Random, pool: list[tuple[str, int, int]], count: int
) -> list[tuple[str, int, int]]:
    """``count`` jobs of ``pool`` without replacement.

    The builders take turns, and each builder's jobs take turns over
    ``t``, so every prefix of the draws mixes builders and sizes evenly.
    """
    if count > len(pool):
        raise ValueError(f"{count} draws from a pool of {len(pool)}")
    by_builder: dict[str, dict[int, list]] = {}
    for job in pool:
        by_builder.setdefault(job[0], {}).setdefault(job[2], []).append(job)
    per_builder = []
    for by_t in by_builder.values():
        for jobs in by_t.values():
            rng.shuffle(jobs)
        per_builder.append(_turns(rng, list(by_t.values())))
    return _turns(rng, per_builder)[:count]


def _service(rng: random.Random, count: int) -> list[Op]:
    blocks = -(-count // len(SERVICE_BLOCK))
    kinds: list[str] = []
    for _ in range(blocks):
        block = list(SERVICE_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    # a resubmission needs an earlier fresh job
    first_fresh = next(i for i, kind in enumerate(kinds) if kind != "replay")
    kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
    kinds = kinds[:count]
    draws = {
        kind: _draw(rng, pool(), kinds.count(kind))[::-1]
        for kind, pool in POOLS.items()
    }
    ops: list[Op] = []
    done: list[Op] = []
    for kind in kinds:
        if kind == "replay":
            earlier = rng.choice(done)
            ops.append(Op("replay", earlier.builder, earlier.n, earlier.t,
                          of=earlier.kind))
        else:
            op = Op(kind, *draws[kind].pop())
            ops.append(op)
            done.append(op)
    return ops


def op_list(workload: str, seed: int, count: int | None = None) -> list[Op]:
    """The first ``count`` ops (default :data:`COUNTS`) of a workload.

    Raises:
        ValueError: for an unknown workload, or a service list that
            would need more fresh jobs of one kind than its pool holds.
    """
    if workload not in COUNTS:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(WORKLOADS)}"
        )
    count = COUNTS[workload] if count is None else count
    rng = random.Random(f"{workload}:{seed}")
    if workload == "paper_all":
        return [Op("all")] * count
    if workload == "service_mixed":
        return _service(rng, count)
    return _cells(rng, count)
