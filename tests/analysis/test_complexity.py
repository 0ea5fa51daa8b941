"""Tests for the complexity sweep harness."""

import pytest

from byzantine_strategies import mute
from repro.analysis.complexity import (
    default_scenarios,
    exhaustive_isolation_scan,
    measure_point,
    mixed_workload,
    quadratic_parameter_grid,
    run_scenario,
    sweep,
    uniform_workloads,
)
from repro.lowerbound.partition import canonical_partition
from repro.omission.isolation import isolate_group
from repro.parallel.jobs import resolve_builder
from repro.protocols.subquadratic import leader_echo_spec
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.adversary import ByzantineAdversary


class TestWorkloads:
    def test_uniform_workloads(self):
        assert uniform_workloads(3) == [[0, 0, 0], [1, 1, 1]]

    def test_mixed_workload_round_robin(self):
        assert mixed_workload(5) == [0, 1, 0, 1, 0]

    def test_parameter_grid(self):
        grid = quadratic_parameter_grid(12, slack=4, step=4)
        assert grid == [(8, 4), (12, 8), (16, 12)]


class TestScenarios:
    def test_includes_isolations_when_t_allows(self):
        spec = broadcast_weak_consensus_spec(8, 4)
        scenarios = default_scenarios(spec, [0] * 8)
        labels = [label for label, _, _ in scenarios]
        assert labels[0] == "fault-free"
        assert any("isolate-B" in label for label in labels)
        assert any("isolate-C" in label for label in labels)

    def test_fault_free_only_for_tiny_t(self):
        spec = broadcast_weak_consensus_spec(4, 1)
        scenarios = default_scenarios(spec, [0] * 4)
        assert [label for label, _, _ in scenarios] == ["fault-free"]


class TestMeasurement:
    def test_measure_point_takes_worst(self):
        spec = leader_echo_spec(8, 4)
        point = measure_point(spec, uniform_workloads(8))
        # Leader echo: 2(n-1) messages fault-free; isolations only lose
        # messages, so the worst is the fault-free run.
        assert point.worst_messages == 14
        assert point.scenario == "fault-free"

    def test_point_ratios(self):
        spec = leader_echo_spec(8, 4)
        point = measure_point(spec, uniform_workloads(8))
        assert point.floor == 0.5
        assert point.ratio_to_floor == 28.0
        assert point.ratio_to_t_squared == 14 / 16

    def test_sweep_produces_one_point_per_parameter(self):
        points = sweep(
            lambda n, t: leader_echo_spec(n, t),
            [(6, 2), (10, 4)],
            include_mixed=False,
        )
        assert [(point.n, point.t) for point in points] == [
            (6, 2),
            (10, 4),
        ]

    def test_measure_point_without_workloads_is_an_error(self):
        with pytest.raises(ValueError, match="leader-echo"):
            measure_point(leader_echo_spec(8, 4), [])

    def test_scenario_that_does_not_compile_is_an_error(self):
        spec = leader_echo_spec(8, 4)
        adversary = ByzantineAdversary({7}, {7: mute()})
        with pytest.raises(ValueError, match="ByzantineAdversary"):
            run_scenario(spec, [0] * 8, adversary)


# Every builder an E7 MeasureJob resolves, plus E1's weak consensus and
# the leader-echo cheater; two small (n, t) points each.
DIFFERENTIAL_SPECS = [
    (name, n, t)
    for name, points in (
        ("dolev-strong", ((4, 2), (6, 3))),
        ("phase-king", ((7, 2), (10, 3))),
        ("ic", ((6, 2), (8, 3))),
        ("weak-consensus", ((6, 2), (8, 4))),
        ("leader-echo", ((6, 2), (8, 4))),
    )
    for n, t in points
]


def _build(name, n, t):
    if name == "leader-echo":
        return leader_echo_spec(n, t)
    if name == "weak-consensus":
        return broadcast_weak_consensus_spec(n, t)
    return resolve_builder(name)(n, t)


def _isolation_rounds(spec):
    """Every single-group isolation the exhaustive scan tries."""
    partition = canonical_partition(spec.n, spec.t)
    return [
        (f"isolate-{label}@{k}", isolate_group(group, k))
        for label, group in (
            ("B", partition.group_b),
            ("C", partition.group_c),
        )
        for k in range(1, spec.rounds + 1)
    ]


class TestKernelCountMatchesObjectEngine:
    """The sweeps count on the mask kernel; the object engine is the
    oracle for every scenario they run."""

    @staticmethod
    def _assert_same(spec, proposals, adversary):
        trace = run_scenario(spec, proposals, adversary)
        execution = spec.run(list(proposals), adversary)
        assert trace.message_complexity() == (
            execution.message_complexity()
        )
        assert dict(enumerate(trace.decisions())) == (
            execution.decisions()
        )
        return trace.message_complexity()

    @pytest.mark.parametrize("name,n,t", DIFFERENTIAL_SPECS)
    def test_default_scenarios(self, name, n, t):
        spec = _build(name, n, t)
        workloads = uniform_workloads(n) + [mixed_workload(n)]
        worst, worst_label = -1, "none"
        for proposals in workloads:
            for label, workload, adversary in default_scenarios(
                spec, proposals
            ):
                messages = self._assert_same(spec, workload, adversary)
                if messages > worst:
                    worst, worst_label = messages, label
        point = measure_point(spec, workloads)
        assert (point.worst_messages, point.scenario) == (
            worst,
            worst_label,
        )

    @pytest.mark.parametrize("name,n,t", DIFFERENTIAL_SPECS)
    def test_exhaustive_isolation_rounds(self, name, n, t):
        spec = _build(name, n, t)
        proposals = mixed_workload(n)
        worst = self._assert_same(spec, proposals, None)
        worst_label = "fault-free"
        for label, adversary in _isolation_rounds(spec):
            messages = self._assert_same(spec, proposals, adversary)
            if messages > worst:
                worst, worst_label = messages, label
        point = exhaustive_isolation_scan(spec, proposals)
        assert (point.worst_messages, point.scenario) == (
            worst,
            worst_label,
        )
