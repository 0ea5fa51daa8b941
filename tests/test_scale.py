"""Paper-regime scale tests: the machinery at t in the tens.

The unit suite runs at toy sizes for speed; these confirm nothing breaks
structurally when t grows into the paper's ``t >= 8, divisible by 8``
regime with the full t/4 partition sizing.
"""

from repro.lowerbound.bound import weak_consensus_floor
from repro.lowerbound.driver import attack_weak_consensus
from repro.lowerbound.partition import paper_partition
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.subquadratic import (
    leader_echo_spec,
    ring_token_spec,
)


class TestPaperRegimeScale:
    def test_attack_at_t_32_with_quarter_partitions(self):
        n, t = 40, 32
        partition = paper_partition(n, t)
        assert len(partition.group_b) == 8
        outcome = attack_weak_consensus(
            ring_token_spec(n, t), partition
        )
        assert outcome.found_violation
        assert len(outcome.witness.execution.faulty) <= t

    def test_attack_at_t_64(self):
        n, t = 72, 64
        outcome = attack_weak_consensus(
            leader_echo_spec(n, t), paper_partition(n, t)
        )
        assert outcome.found_violation
        # At this scale the cheater is genuinely below the floor.
        assert outcome.bound.observed < weak_consensus_floor(t) * 32

    def test_cheater_below_floor_at_scale(self):
        t = 128
        spec = leader_echo_spec(t + 8, t)
        messages = spec.run_uniform(0).message_complexity()
        assert messages < weak_consensus_floor(t)

    def test_dolev_strong_at_n_48(self):
        spec = dolev_strong_spec(48, 16)
        execution = spec.run_uniform("v")
        assert set(execution.correct_decisions().values()) == {"v"}
        assert execution.message_complexity() >= weak_consensus_floor(
            16
        )
