"""Every run the driver uses equals a fresh object-engine run.

The driver simulates on the mask kernel and reuses runs three ways:
prefix forks off the fault-free run, quiescent aliases between scan
steps, and the beyond-horizon alias of the fault-free run.  The object
engine is the reference: after an attack, each cache entry
``(spec key, bit, signature)`` must materialize to exactly the
execution ``spec.run_uniform`` records for that configuration — with
the driver's ``scope="all"`` early stop when the entry is truncated —
and carry its §2 message count.  Tracing must not change the engine: a
traced attack still builds masks and reports every simulated round.
"""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import (
    ExecutionCache,
    LowerBoundDriver,
    attack_weak_consensus,
)
from repro.obs.ledger import RunLedger
from repro.obs.tracer import NULL_TRACER, LedgerTracer
from repro.omission.isolation import isolate_group
from repro.protocols.base import ProtocolSpec
from repro.protocols.subquadratic import ring_token_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.engine import EarlyStopPolicy
from repro.sim.process import Process



class EarlyDecidingFlood(Process):
    """FloodSet with the "no new failure observed" early decision ([50]).

    Decide the least value seen at the first round ``r >= 2`` whose set
    of heard-from processes equals round ``r - 1``'s, and by round
    ``t + 2`` regardless.  Runs that stabilize decide early, so the
    driver's early-stopped cache entries are truncated: the hard case
    for the reuse paths below.
    """

    def __init__(self, pid, n, t, proposal):
        super().__init__(pid, n, t, proposal)
        self.seen = {proposal}
        self.heard_before = None

    def outgoing(self, round_):
        if round_ > self.t + 2:
            return {}
        payload = tuple(sorted(self.seen, key=repr))
        return {other: payload for other in range(self.n) if other != self.pid}

    def deliver(self, round_, received):
        if round_ > self.t + 2:
            return
        for _, payload in sorted(received.items()):
            if isinstance(payload, tuple):
                self.seen.update(payload)
        heard = frozenset(received) | {self.pid}
        stable = heard == self.heard_before
        self.heard_before = heard
        if self.decision is None and (stable or round_ == self.t + 2):
            self.decide(min(self.seen, key=repr))


def early_deciding_spec(n, t):
    return ProtocolSpec(
        name="early-deciding-flood",
        n=n,
        t=t,
        rounds=t + 2,
        factory=lambda pid, bit: EarlyDecidingFlood(pid, n, t, bit),
        authenticated=False,
    )


CASES = [
    *((name, builder, 12, 8) for name, builder in sorted(CHEATERS.items())),
    ("correct", broadcast_weak_consensus_spec, 6, 4),
]


def _assert_cache_matches_object_engine(spec, cache):
    assert cache._entries
    for (spec_key, bit, sig), entry in cache._entries.items():
        assert spec_key == (spec.name, spec.n, spec.t, spec.rounds)
        adversary = None if sig is None else isolate_group(*sig)
        observers = [] if entry.complete else [EarlyStopPolicy(scope="all")]
        reference = spec.run_uniform(bit, adversary, observers=observers)
        assert entry.run.to_execution() == reference, (bit, sig)
        assert entry.messages == reference.message_complexity(), (bit, sig)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "name, builder, n, t", CASES, ids=[case[0] for case in CASES]
)
def test_object_and_mask_engines_agree(name, builder, n, t, traced):
    """Attack with reuse on and off; every cached run is checked."""
    for reuse in (True, False):
        spec = builder(n, t)
        cache = ExecutionCache()
        ledger = RunLedger() if traced else None
        tracer = LedgerTracer(ledger) if traced else NULL_TRACER
        outcome = attack_weak_consensus(
            spec, certify=True, reuse=reuse, cache=cache, tracer=tracer
        )
        assert outcome.rounds_simulated > 0
        if traced:
            counters = [
                event for event in ledger.events if event.kind == "counter"
            ]
            rounds = [e for e in counters if e.name == "engine.round"]
            assert len(rounds) == outcome.rounds_simulated
            (masks,) = [e for e in counters if e.name == "engine.masks_built"]
            assert masks.value == 4 * n * outcome.rounds_simulated
        _assert_cache_matches_object_engine(spec, cache)


@pytest.mark.parametrize(
    "builder, n, t, truncates",
    [(ring_token_spec, 12, 8, False), (early_deciding_spec, 6, 4, True)],
    ids=["ring-token", "early-stopping"],
)
def test_every_reuse_path_equals_a_fresh_object_run(builder, n, t, truncates):
    """Request every isolation of both groups, past the horizon too.

    The attacks above reach neither the beyond-horizon alias nor a
    surviving early-stopped entry; this grid adds both to prefix forks
    and quiescent aliases, and checks each against the object engine.
    """
    spec = builder(n, t)
    cache = ExecutionCache()
    driver = LowerBoundDriver(spec, cache=cache)
    for bit in (0, 1):
        for group in ("B", "C"):
            for from_round in range(1, spec.rounds + 3):
                driver._run(bit, group, from_round)
    assert driver._prefix_rounds_skipped > 0
    assert cache.alias_hits > 0
    assert any(
        sig is not None and sig[1] > spec.rounds
        for _key, _bit, sig in cache._entries
    )
    truncated = [e for e in cache._entries.values() if not e.complete]
    assert bool(truncated) == truncates
    _assert_cache_matches_object_engine(spec, cache)
