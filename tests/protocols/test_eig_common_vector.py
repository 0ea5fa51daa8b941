"""The EIG common-vector lemma, tested directly on the internals.

The n > 3t correctness of EIG rests on: after t+1 rounds, all correct
processes resolve *identical* level-1 vectors.  The decision tests only
observe the consequence; here the resolved vectors themselves are
compared, under each attack strategy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzantine_strategies import garbage, mute, two_faced
from repro.protocols.eig import EIGProcess, eig_consensus_spec
from repro.sim.adversary import ByzantineAdversary
from repro.sim.engine import RoundEngine, TraceRecorder
from repro.sim.simulator import SimulationConfig, build_machines
from repro.sim.adversary import NoFaults


def run_and_collect_vectors(n, t, proposals, adversary):
    """Drive machines manually so the resolved vectors stay accessible."""
    spec = eig_consensus_spec(n, t)
    config = SimulationConfig(n=n, t=t, rounds=spec.rounds)
    machines = build_machines(
        config, proposals, spec.factory, adversary or NoFaults()
    )
    recorder = TraceRecorder()
    engine = RoundEngine(
        config, machines, adversary or NoFaults(), [recorder]
    )
    engine.run()
    execution = recorder.execution()
    vectors = {
        pid: tuple(machines[pid].resolved_vector())
        for pid in execution.correct
        if isinstance(machines[pid], EIGProcess)
    }
    return vectors, execution


class TestCommonVectorLemma:
    @pytest.mark.parametrize(
        "strategy", [mute(), garbage(), two_faced(0, 1)]
    )
    def test_vectors_identical_across_correct(self, strategy):
        adversary = ByzantineAdversary({3}, {3: strategy})
        vectors, execution = run_and_collect_vectors(
            4, 1, [0, 1, 1, 0], adversary
        )
        assert len(set(vectors.values())) == 1

    def test_correct_slots_hold_proposals(self):
        adversary = ByzantineAdversary({2}, {2: mute()})
        vectors, execution = run_and_collect_vectors(
            4, 1, [1, 0, 1, 0], adversary
        )
        vector = next(iter(vectors.values()))
        for pid in execution.correct:
            assert vector[pid] == [1, 0, 1, 0][pid]

    @settings(max_examples=15, deadline=None)
    @given(
        proposals=st.lists(st.integers(0, 1), min_size=7, max_size=7),
        corrupted=st.sets(st.integers(0, 6), min_size=1, max_size=2),
        pick=st.sampled_from(["mute", "garbage", "two-faced"]),
    )
    def test_common_vector_property(self, proposals, corrupted, pick):
        strategies = {
            "mute": mute(),
            "garbage": garbage(),
            "two-faced": two_faced(0, 1),
        }
        adversary = ByzantineAdversary(
            corrupted, {pid: strategies[pick] for pid in corrupted}
        )
        vectors, _ = run_and_collect_vectors(
            7, 2, proposals, adversary
        )
        assert len(set(vectors.values())) == 1
