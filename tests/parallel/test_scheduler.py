"""The parallel sweep backend (acceptance for the fan-out PR).

The acceptance bar: sharding the seed cheater matrix over a process
pool is **bit-identical** to the serial sweep — same witnesses, same
verdicts, same message counts, gathered in the same order — and a
failing cell surfaces as a structured per-cell error without aborting
its siblings.
"""

from dataclasses import replace

import pytest

from repro.lowerbound.driver import ExecutionCache
from repro.parallel import (
    AttackJob,
    CacheStats,
    ClassifyJob,
    MeasureJob,
    SweepScheduler,
    UnknownBuilderError,
    execute_job,
    resolve_builder,
)

# The seed cheater matrix at the paper's small regime — enough cells
# that process scheduling order differs from submission order.
MATRIX = [
    AttackJob(builder=name, n=t + 4, t=t)
    for name in ("silent", "leader-echo", "committee", "ring-token")
    for t in (8, 12)
]


def _outcomes_agree(left, right):
    assert left.found_violation == right.found_violation
    assert left.default_bit == right.default_bit
    assert left.critical_round == right.critical_round
    assert left.witness == right.witness
    if left.bound is not None and right.bound is not None:
        assert left.bound.observed == right.bound.observed


class TestCrossBackendEquivalence:
    def test_process_backend_bit_identical_to_serial(self):
        serial = SweepScheduler(jobs=1).run(MATRIX)
        parallel = SweepScheduler(jobs=4).run(MATRIX)
        serial.raise_errors()
        parallel.raise_errors()
        assert serial.backend == "serial"
        assert parallel.backend == "process"
        # Deterministic gather: cells come back in submission order.
        assert [c.key for c in serial.cells] == [
            job.key for job in MATRIX
        ]
        assert [c.key for c in parallel.cells] == [
            job.key for job in MATRIX
        ]
        for left, right in zip(serial.values(), parallel.values()):
            _outcomes_agree(left, right)
        # AttackOutcome equality covers every compared field at once
        # (wall-clock data is excluded from comparison by design).
        assert serial.values() == parallel.values()
        # Merged cache accounting is backend-independent too.
        assert serial.cache == parallel.cache
        assert serial.rounds_simulated == parallel.rounds_simulated
        assert serial.rounds_baseline == parallel.rounds_baseline

    def test_e3_matrix_two_workers_equal_serial(self):
        """The E3 cheater matrix: ``--jobs 2`` changes no verdict."""
        from repro.experiments import CHEATERS

        matrix = [
            AttackJob(builder=name, n=t + 4, t=t)
            for name in CHEATERS
            for t in (8, 16)
        ]
        serial = SweepScheduler(jobs=1).run(matrix)
        pooled = SweepScheduler(jobs=2).run(matrix)
        serial.raise_errors()
        pooled.raise_errors()
        assert pooled.backend == "process"
        assert serial.values() == pooled.values()

    def test_serial_backend_matches_direct_driver_calls(self):
        from repro.lowerbound.driver import attack_weak_consensus

        job = MATRIX[0]
        direct = attack_weak_consensus(
            resolve_builder(job.builder)(job.n, job.t)
        )
        report = SweepScheduler(jobs=1).run([job])
        report.raise_errors()
        _outcomes_agree(direct, report.values()[0])
        assert direct == report.values()[0]


class TestPerCellErrors:
    BAD_MATRIX = [
        AttackJob(builder="silent", n=12, t=8),
        AttackJob(builder="no-such-cheater", n=12, t=8),
        AttackJob(builder="leader-echo", n=12, t=8),
    ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_structured_and_isolated(self, jobs):
        report = SweepScheduler(jobs=jobs).run(self.BAD_MATRIX)
        assert not report.ok
        good, bad, also_good = report.cells
        assert good.ok and also_good.ok
        assert not bad.ok
        assert bad.error.kind == "exception"
        assert "no-such-cheater" in bad.error.message
        assert "UnknownBuilderError" in bad.error.message
        # The traceback rides along for debugging.
        assert "UnknownBuilderError" in bad.error.detail
        # The healthy cells still produced full outcomes.
        assert len(report.values()) == 2
        with pytest.raises(RuntimeError, match="no-such-cheater"):
            report.raise_errors()
        with pytest.raises(RuntimeError, match="failed"):
            bad.value

    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            SweepScheduler(jobs=0)


class TestCacheStatsMerge:
    def test_merge_stats_folds_counters_only(self):
        target = ExecutionCache()
        target.hits, target.alias_hits, target.misses = 1, 2, 3
        target.merge_stats(CacheStats(hits=10, alias_hits=20, misses=30))
        assert (target.hits, target.alias_hits, target.misses) == (
            11,
            22,
            33,
        )
        # Entries and fork states are untouched: counters only.
        assert target._entries == {}
        assert target._kernel_states == {}

    def test_merge_stats_accepts_other_caches(self):
        left, right = ExecutionCache(), ExecutionCache()
        left.hits, right.hits = 5, 7
        left.merge_stats(right)
        assert left.hits == 12

    def test_cachestats_merged_is_elementwise(self):
        merged = CacheStats(1, 2, 3).merged(CacheStats(4, 5, 6))
        assert merged == CacheStats(5, 7, 9)

    def test_sweep_report_merges_worker_counters(self):
        report = SweepScheduler(jobs=1).run(MATRIX[:2])
        report.raise_errors()
        total = CacheStats()
        for cell in report.cells:
            total = total.merged(cell.result.cache)
        assert report.cache == total


class TestBuilderRegistry:
    def test_all_cheaters_and_protocols_resolve(self):
        # The registry lists itself in the unknown-name error.
        with pytest.raises(UnknownBuilderError) as error:
            resolve_builder("definitely-not-registered")
        names = str(error.value).partition("registered: ")[2].split(", ")
        assert {"silent", "ring-token", "correct", "ic"} <= set(names)
        for name in names:
            spec = resolve_builder(name)(12, 8)
            assert spec.n == 12 and spec.t == 8

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownBuilderError, match="registered:"):
            resolve_builder("definitely-not-registered")


class TestMeasureJobs:
    def test_measure_job_matches_sweep_kernel(self):
        from repro.analysis.complexity import sweep
        from repro.protocols.dolev_strong import dolev_strong_spec

        expected = sweep(lambda n, t: dolev_strong_spec(n, t), [(8, 4)])
        result = execute_job(MeasureJob(builder="dolev-strong", n=8, t=4))
        assert [result.value] == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_job_kinds_in_one_sweep(self, jobs):
        report = SweepScheduler(jobs=jobs).run(
            [
                AttackJob(builder="silent", n=12, t=8),
                MeasureJob(builder="dolev-strong", n=8, t=4),
            ]
        )
        report.raise_errors()
        attack_cell, measure_cell = report.cells
        assert attack_cell.key[0] == "attack"
        assert measure_cell.key[0] == "measure"
        assert measure_cell.result.cache is None
        # Only attack cells contribute cache counters.
        assert report.cache == attack_cell.result.cache


class TestProfiledJobs:
    def test_profile_rides_through_the_pool(self):
        """A traced cell ships its phase spans and round events home."""
        report = SweepScheduler(jobs=2).run(
            [AttackJob(builder="silent", n=12, t=8, ledger=True)]
        )
        report.raise_errors()
        events = report.cells[0].result.events
        spans = {e.name for e in events if e.kind == "span-start"}
        assert {"fault-free", "isolation-scan", "merge"} <= spans
        rounds = [
            e for e in events
            if e.kind == "counter" and e.name == "engine.round"
        ]
        assert rounds
        assert all(e.attr("seconds", -1.0) >= 0 for e in rounds)
        # Timings are wall-clock data: they never affect equality.
        bare = SweepScheduler(jobs=1).run(
            [AttackJob(builder="silent", n=12, t=8)]
        )
        assert bare.values() == report.values()


class TestExecuteJob:
    @pytest.mark.parametrize("job", [
        AttackJob(builder="silent", n=8, t=4, ledger=True),
        MeasureJob(builder="dolev-strong", n=5, t=1, ledger=True),
        ClassifyJob(builder="weak", n=4, t=1, ledger=True),
    ], ids=lambda job: job.key[0])
    def test_every_kind_is_traced_and_timed(self, job):
        from repro.obs.ledger import cell_label

        result = execute_job(job)
        assert result.wall_seconds > 0
        assert result.events
        assert {e.cell_id for e in result.events} == {cell_label(job.key)}
        untraced = execute_job(replace(job, ledger=False))
        assert untraced.events is None
        assert untraced.value == result.value


class TestGatherFailure:
    """An exception in the gather loop stops the sweep: the pool
    cancels every cell it has not started."""

    CELLS = 20

    @pytest.mark.parametrize("jobs, most", [(1, 1), (2, 9)])
    def test_failed_record_stops_the_sweep(
        self, jobs, most, tmp_path, monkeypatch
    ):
        import time

        from repro.parallel.jobs import JobResult

        def marked_run(self, *tracer):
            # Forked workers inherit this patch, so every cell that runs
            # anywhere leaves a marker.
            (tmp_path / f"cell-{self.n}").touch()
            time.sleep(0.1)
            return JobResult(key=self.key, value=None)

        def failing_record(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(MeasureJob, "run", marked_run)
        monkeypatch.setattr(SweepScheduler, "_record_cell", failing_record)
        matrix = [
            MeasureJob(builder="silent", n=8 + index, t=4)
            for index in range(self.CELLS)
        ]
        with pytest.raises(OSError, match="no space"):
            SweepScheduler(jobs=jobs).run(matrix)
        ran = len(list(tmp_path.glob("cell-*")))
        assert 1 <= ran <= most, ran
