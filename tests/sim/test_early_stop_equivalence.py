"""Early stopping is observationally sound (satellite of the engine PR).

``EarlyStopPolicy`` halts a run once every correct process has decided.
Soundness claim: against the *same* adversary, the truncated run and the
full-horizon run agree on every decision and on the §2 message metric,
because a deterministic machine that has decided in a quiet protocol
sends nothing new afterwards.  Exercised here over a small ``(n, t)``
grid for both seed protocols, with the horizon padded past the
protocol's own ``rounds`` so the stop is actually early.
"""

import pytest

from repro.protocols.phase_king import phase_king_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import NoFaults, SilenceAdversary
from repro.sim.simulator import SimulationConfig, run_execution

PADDING = 3


def _sent_by_correct(execution):
    """The §2 message count broken down by ``(sender, round)``."""
    return {
        (pid, round_): len(behavior.sent(round_))
        for pid in execution.correct
        for behavior in [execution.behavior(pid)]
        for round_ in range(1, behavior.rounds + 1)
        if behavior.sent(round_)
    }

GRID = [
    ("weak-consensus", broadcast_weak_consensus_spec, 4, 1),
    ("weak-consensus", broadcast_weak_consensus_spec, 5, 2),
    ("weak-consensus", broadcast_weak_consensus_spec, 6, 2),
    ("phase-king", phase_king_spec, 4, 1),
    ("phase-king", phase_king_spec, 5, 1),
    ("phase-king", phase_king_spec, 7, 2),
]


def _run_padded(spec, bit, adversary, *, early_stop):
    config = SimulationConfig(
        n=spec.n, t=spec.t, rounds=spec.rounds + PADDING
    )
    return run_execution(
        config,
        [bit] * spec.n,
        spec.factory,
        adversary,
        early_stop=early_stop,
    )


@pytest.mark.parametrize(
    "family, build, n, t",
    GRID,
    ids=[f"{name}-{n}-{t}" for name, _, n, t in GRID],
)
@pytest.mark.parametrize("bit", [0, 1])
def test_early_stop_matches_full_horizon(family, build, n, t, bit):
    spec = build(n, t)
    full = _run_padded(spec, bit, NoFaults(), early_stop=False)
    stopped = _run_padded(spec, bit, NoFaults(), early_stop=True)

    # The stop was genuinely early: the padded tail never ran.
    assert stopped.rounds < spec.rounds + PADDING
    assert full.rounds == spec.rounds + PADDING

    # Identical decisions for every process.
    for pid in range(n):
        assert stopped.decision(pid) == full.decision(pid)

    # Identical §2 message accounting, not just the totals.
    assert _sent_by_correct(stopped) == _sent_by_correct(full)
    assert stopped.message_complexity() == full.message_complexity()


@pytest.mark.parametrize(
    "family, build, n, t",
    GRID,
    ids=[f"{name}-{n}-{t}" for name, _, n, t in GRID],
)
def test_early_stop_matches_under_faults(family, build, n, t):
    spec = build(n, t)
    full = _run_padded(
        spec, 1, SilenceAdversary({n - 1}), early_stop=False
    )
    stopped = _run_padded(
        spec, 1, SilenceAdversary({n - 1}), early_stop=True
    )
    assert stopped.rounds < full.rounds
    for pid in range(n):
        assert stopped.decision(pid) == full.decision(pid)
    assert _sent_by_correct(stopped) == _sent_by_correct(full)
    assert stopped.message_complexity() == full.message_complexity()
