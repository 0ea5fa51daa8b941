"""The driver's ``engine.*`` work counters, pinned per attack.

A traced attack emits three counts of engine work: ``engine.masks_built``
(four bitmasks per process per simulated round), ``engine.popcounts``
(one per correct sender per round of every run whose message count the
driver takes) and ``engine.machine_snapshots`` (machines the prefix
forker deep-copied).  The driver counts this work itself, so each value
depends on the attack alone: it is pinned below, and two traced runs of
one attack in one process report equal counters.
"""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import ExecutionCache, attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec

# (masks_built, popcounts, machine_snapshots) per (name, n, t).
PINNED = {
    ("committee", 12, 8): (288, 68, 0),
    ("leader-echo", 12, 8): (288, 68, 0),
    ("ring-token", 12, 8): (3648, 888, 24),
    ("seeded-committee", 12, 8): (624, 148, 24),
    ("silent", 12, 8): (288, 64, 0),
    ("committee", 20, 16): (480, 112, 0),
    ("leader-echo", 20, 16): (480, 112, 0),
    ("ring-token", 20, 16): (10240, 2400, 40),
    ("seeded-committee", 20, 16): (480, 112, 0),
    ("silent", 20, 16): (480, 104, 0),
    ("weak-consensus", 6, 4): (720, 160, 0),
}

BUILDERS = {**CHEATERS, "weak-consensus": broadcast_weak_consensus_spec}

WORK = ("engine.masks_built", "engine.popcounts", "engine.machine_snapshots")


def _traced_counters(name, n, t):
    ledger = RunLedger()
    attack_weak_consensus(
        BUILDERS[name](n, t),
        cache=ExecutionCache(),
        tracer=LedgerTracer(ledger),
    )
    return {
        event.name: event.value
        for event in ledger.events
        if event.kind == "counter" and event.name != "engine.round"
    }


CASES = sorted(PINNED)


@pytest.mark.parametrize(
    "name, n, t", CASES, ids=[f"{name}-{n}-{t}" for name, n, t in CASES]
)
def test_engine_work_counters_are_pinned(name, n, t):
    counters = _traced_counters(name, n, t)
    assert tuple(counters[key] for key in WORK) == PINNED[name, n, t]
    assert counters["engine.masks_built"] == (
        4 * n * counters["engine.rounds_simulated"]
    )
    assert _traced_counters(name, n, t) == counters
