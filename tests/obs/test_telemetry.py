"""Tests for the sampled telemetry bus (fake clock, real world log).

The bus's contract has three legs, each pinned here:

* **sampling discipline** — ``maybe_sample`` appends only once the
  interval elapsed; ``close`` writes the end-of-run picture but an
  idle bus (nothing attached, nothing sampled) leaves no record;
* **payload fold** — metrics snapshot + cache hit rate, progress
  accounting, round-tap totals and extra sources all land in one
  ``telemetry.snapshot`` payload with a stable schema tag;
* **observability-only** — recovery, the jobs manifest and sweep
  resume never see the records (covered in the worldlog/service
  suites; here we pin the record kind itself).

:class:`TestRecordedRunShapes` repeats the fold, the append, both
exports and a cold tail poll at the size of a recorded sweep, with
every section attached at once.
"""

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    chrome_trace,
    registry_from_events,
    render_prometheus,
)
from repro.obs.ledger import LedgerEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.obs.telemetry import (
    DEFAULT_INTERVAL,
    TELEMETRY_SCHEMA,
    TelemetryBus,
    parse_interval,
)
from repro.worldlog.store import LogTailer, WorldLog, read_worldlog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture
def worldlog(tmp_path):
    log = WorldLog.create(str(tmp_path / "t.worldlog"))
    yield log
    log.close()


def _bus(worldlog, interval=1.0, **kwargs):
    clock = FakeClock()
    bus = TelemetryBus(
        worldlog, interval=interval, clock=clock, **kwargs
    )
    return bus, clock


class TestParseInterval:
    def test_accepts_positive_numbers(self):
        assert parse_interval("2.5") == 2.5
        assert parse_interval(3) == 3.0
        assert parse_interval("0.001") == 0.001

    @pytest.mark.parametrize(
        "bad", ["0", "-1", "abc", "nan", "", None, float("nan")]
    )
    def test_rejects_nonpositive_and_unparsable(self, bad):
        with pytest.raises(ReproError) as excinfo:
            parse_interval(bad)
        assert "--interval expects a positive number" in str(
            excinfo.value
        )

    def test_flag_name_appears_in_the_diagnostic(self):
        with pytest.raises(ReproError) as excinfo:
            parse_interval("0", "--telemetry-interval")
        assert str(excinfo.value).startswith("--telemetry-interval ")

    def test_default_interval_is_valid(self):
        assert parse_interval(DEFAULT_INTERVAL) == DEFAULT_INTERVAL


class TestSamplingDiscipline:
    def test_maybe_sample_respects_the_interval(self, worldlog):
        bus, clock = _bus(worldlog, interval=1.0)
        assert bus.sample().payload["seq"] == 0
        assert bus.maybe_sample() is None  # same instant
        clock.advance(0.5)
        assert bus.maybe_sample() is None  # inside the interval
        clock.advance(0.5)
        record = bus.maybe_sample()  # exactly the interval: due
        assert record is not None
        assert record.payload["seq"] == 1
        assert bus.samples == 2

    def test_first_maybe_sample_fires_immediately(self, worldlog):
        bus, _ = _bus(worldlog, interval=60.0)
        assert bus.maybe_sample() is not None

    def test_idle_bus_closes_without_a_record(self, worldlog):
        bus, _ = _bus(worldlog)
        assert bus.close() is None
        kinds = [record.kind for record in worldlog.records]
        assert "telemetry.snapshot" not in kinds

    def test_attached_bus_closes_with_a_final_sample(self, worldlog):
        bus, _ = _bus(worldlog)
        bus.attach_metrics(MetricsRegistry())
        record = bus.close()
        assert record is not None
        assert record.kind == "telemetry.snapshot"

    def test_bad_interval_is_rejected_at_construction(self, worldlog):
        with pytest.raises(ReproError):
            TelemetryBus(worldlog, interval=0)


class TestSnapshotFold:
    def test_schema_seq_source_and_uptime(self, worldlog):
        bus, clock = _bus(worldlog, source="attack")
        clock.advance(4.0)
        payload = bus.build_snapshot()
        assert payload["schema"] == TELEMETRY_SCHEMA
        assert payload["seq"] == 0
        assert payload["source"] == "attack"
        assert payload["uptime_seconds"] == 4.0

    def test_metrics_and_cache_hit_rate_fold_in(self, worldlog):
        registry = MetricsRegistry()
        registry.counter("engine.round").add(7)
        registry.counter("cache.hits").add(2)
        registry.counter("cache.alias_hits").add(1)
        registry.counter("cache.misses").add(1)
        bus, _ = _bus(worldlog, metrics=registry)
        payload = bus.build_snapshot()
        assert payload["metrics"]["counters"]["engine.round"] == 7
        assert payload["cache_hit_rate"] == 0.75

    def test_progress_accounting_folds_in(self, worldlog):
        progress = SweepProgress(4, label="sweep")
        progress.start("a")
        progress.note_done("a")
        bus, _ = _bus(worldlog)
        bus.attach_progress(progress)
        section = bus.build_snapshot()["progress"]
        assert section["label"] == "sweep"
        assert section["done"] == 1
        assert section["total"] == 4

    def test_round_tap_counts_and_vs_floor(self, worldlog):
        bus, clock = _bus(worldlog, interval=100.0)
        tap = bus.round_tap(floor=8.0)

        class Event:
            @staticmethod
            def sent_by_correct():
                return 6

        tap.on_run_start(None, None, None)
        clock.advance(2.0)
        tap.on_round(Event())
        tap.on_round(Event())
        rounds = bus.build_snapshot()["rounds"]
        assert rounds["seen"] == 2
        assert rounds["runs"] == 1
        assert rounds["cum_messages"] == 12
        assert rounds["rounds_per_second"] == 1.0
        assert rounds["vs_floor"] == 1.5

    def test_round_tap_pumps_the_bus(self, worldlog):
        bus, clock = _bus(worldlog, interval=1.0)
        tap = bus.round_tap()

        class Event:
            @staticmethod
            def sent_by_correct():
                return 0

        tap.on_round(Event())  # first pump samples immediately
        clock.advance(1.0)
        tap.on_round(Event())
        assert bus.samples == 2

    def test_extra_sources_land_under_their_name(self, worldlog):
        bus, _ = _bus(worldlog)
        bus.add_source("service", lambda: {"queued": 3})
        assert bus.build_snapshot()["service"] == {"queued": 3}

    def test_sampled_records_round_trip_through_the_log(
        self, worldlog, tmp_path
    ):
        bus, _ = _bus(worldlog)
        bus.attach_metrics(MetricsRegistry())
        bus.sample()
        bus.sample()
        worldlog.close()
        records = read_worldlog(str(tmp_path / "t.worldlog"))
        snaps = [
            record
            for record in records
            if record.kind == "telemetry.snapshot"
        ]
        assert [snap.payload["seq"] for snap in snaps] == [0, 1]
        assert all(
            snap.payload["schema"] == TELEMETRY_SCHEMA
            for snap in snaps
        )


class TestRecordedRunShapes:
    """Every section attached, inputs sized like a recorded sweep."""

    ROUNDS = 512
    SNAPSHOTS = 64
    CELLS = 96
    ROUNDS_PER_CELL = 16

    def _loaded_bus(self, worldlog):
        registry = MetricsRegistry()
        registry.counter("engine.round").add(self.ROUNDS)
        registry.counter("cache.hits").add(300)
        registry.counter("cache.alias_hits").add(50)
        registry.counter("cache.misses").add(150)
        registry.gauge("bound.vs_floor").set(1.5)
        for index in range(64):
            registry.histogram("engine.round_seconds").record(
                0.001 * (index % 7 + 1)
            )
        bus, clock = _bus(worldlog, source="sweep", metrics=registry)
        progress = SweepProgress(self.CELLS, label="sweep")
        progress.start("cell/000")
        bus.attach_progress(progress)
        tap = bus.round_tap(floor=8.0)
        tap.on_run_start(None, None, None)
        tap.rounds_seen = self.ROUNDS  # pre-counted, no per-round pump
        tap.cum_messages = self.ROUNDS * 6
        bus.add_source("service", lambda: {"queued": 3, "busy": 1})
        return bus, clock

    def _recorded_events(self):
        """A span-and-counter stream shaped like a recorded attack run."""
        events = []
        clock = 0.0

        def emit(kind, name, value=None, cell=None):
            events.append(
                LedgerEvent(
                    kind=kind,
                    name=name,
                    ts=clock,
                    value=value,
                    run_id="recorded",
                    cell_id=cell,
                    worker_id=1,
                )
            )

        for index in range(self.CELLS):
            cell = f"cell/{index:03d}"
            emit("span-start", "attack", cell=cell)
            for _ in range(self.ROUNDS_PER_CELL):
                clock += 0.001
                emit("counter", "engine.round", value=1, cell=cell)
            emit("gauge", "cell.wall_seconds", value=0.016, cell=cell)
            clock += 0.001
            emit("span-end", "attack", cell=cell)
        return events

    def test_polls_inside_the_interval_append_nothing(self, worldlog):
        bus, clock = self._loaded_bus(worldlog)
        bus.sample()  # arm the interval clock
        for _ in range(10_000):
            clock.advance(1e-5)
            bus.maybe_sample()
        assert bus.samples == 1

    def test_every_section_folds_into_one_payload(self, worldlog):
        bus, _ = self._loaded_bus(worldlog)
        payload = bus.build_snapshot()
        assert payload["rounds"]["seen"] == self.ROUNDS
        assert payload["cache_hit_rate"] == 0.7
        assert payload["service"]["queued"] == 3

    def test_sampled_snapshots_land_in_the_log(self, worldlog, tmp_path):
        bus, _ = self._loaded_bus(worldlog)
        for _ in range(self.SNAPSHOTS):
            bus.sample()
        worldlog.close()
        records = read_worldlog(str(tmp_path / "t.worldlog"))
        snaps = [r for r in records if r.kind == "telemetry.snapshot"]
        assert len(snaps) == self.SNAPSHOTS

    def test_prometheus_exposition_of_a_recorded_run(self):
        registry = registry_from_events(self._recorded_events())
        document = render_prometheus(registry.snapshot())
        rounds = self.CELLS * self.ROUNDS_PER_CELL
        assert f"repro_engine_round_total {rounds}" in document
        assert (
            f"repro_span_attack_seconds_count {self.CELLS}" in document
        )

    def test_chrome_trace_of_a_recorded_run(self):
        trace = chrome_trace(self._recorded_events())
        spans = [
            entry
            for entry in trace["traceEvents"]
            if entry["ph"] in ("B", "E")
        ]
        assert len(spans) == 2 * self.CELLS

    def test_cold_tail_poll_returns_every_record(self, tmp_path):
        path = str(tmp_path / "tail.worldlog")
        with WorldLog.create(path, run_id="recorded") as log:
            for index in range(2048):
                log.append("checkpoint", {"i": index})
        records = LogTailer(path).poll()
        assert len(records) == 2048 + 1  # + the log.open header
