"""The sampled telemetry bus: live run state as observability records.

A run already *has* all the interesting live numbers — the
:class:`~repro.obs.metrics.MetricsRegistry` the tracer streams into,
the :class:`~repro.obs.progress.SweepProgress` heartbeat accounting,
the per-round counts a :class:`~repro.obs.tracer.RoundTraceObserver`
sees — but until now they were only visible *after* the run, via the
derived views.  :class:`TelemetryBus` closes the gap: on a sampling
interval it folds whatever sources are attached into one
``telemetry.snapshot`` world-log record, so ``repro top`` (or any
``LogTailer`` follower) can watch a run converge on the ``t²/32``
floor while it happens.

The contract that makes this safe is **observability-only**:

* ``recover_jobs``, the jobs manifest and sweep resume never look at
  ``telemetry.snapshot`` records (they fold only their own kinds);
* the semantic differ drops them before aligning
  (:data:`~repro.worldlog.diffing.OBSERVABILITY_KINDS`), so a
  telemetry-on run diffs empty against its telemetry-off twin;
* nothing in a snapshot ever feeds back into execution — the bus
  only *reads* its sources.

Cost discipline: a bus that is not attached costs nothing (the driver
and scheduler skip every hook when ``telemetry is None``); an attached
bus costs one monotonic-clock read and one comparison per pump until
the interval elapses, and one registry fold + JSON append when it
does.  ``tests/obs/test_telemetry.py`` pins the shape of both paths
(an idle bus appends nothing; a due bus appends one snapshot).

>>> from repro.worldlog.store import WorldLog
>>> import tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "t.worldlog")
>>> clock = iter([0.0, 10.0, 10.0]).__next__
>>> bus = TelemetryBus(WorldLog.create(path), interval=1.0, clock=clock)
>>> record = bus.sample()
>>> record.kind
'telemetry.snapshot'
>>> record.payload["seq"]
0
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError
from repro.sim.engine import RoundEvent, RoundObserver

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.progress import SweepProgress
    from repro.worldlog.record import Record
    from repro.worldlog.store import WorldLog

TELEMETRY_SCHEMA = "repro.telemetry/v1"
"""The schema tag carried by every ``telemetry.snapshot`` payload."""

DEFAULT_INTERVAL = 1.0
"""Default seconds between samples (the ``--telemetry-interval`` default)."""


def parse_interval(
    value: str | float | int, flag: str = "--interval"
) -> float:
    """A positive seconds value from a CLI argument, or a clean error.

    The uniform ``--interval`` / ``--telemetry-interval`` validator:
    anything unparsable or non-positive raises :class:`ReproError`,
    which the CLI renders as the standard one-line ``error: ...``
    stderr diagnostic with exit code 1 — the same shape
    ``repro.artifact`` gives malformed files.

    >>> parse_interval("2.5")
    2.5
    >>> parse_interval("0")
    Traceback (most recent call last):
        ...
    repro.errors.ReproError: --interval expects a positive number of seconds, got '0'
    """
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = float("nan")
    if not seconds > 0:  # rejects NaN, zero and negatives in one test
        raise ReproError(
            f"{flag} expects a positive number of seconds, "
            f"got {value!r}"
        )
    return seconds


class TelemetryRoundTap(RoundObserver):
    """A self-contained per-round tap feeding one telemetry bus.

    Unlike :class:`~repro.obs.tracer.RoundTraceObserver` it emits no
    ledger events — it only keeps running counts (rounds, cumulative
    correct-sender messages, the vs-floor ratio when the ``t²/32``
    floor is known) and pumps the bus once per round, on the object
    engine and the mask kernel alike, so telemetry works even under the
    :data:`~repro.obs.tracer.NULL_TRACER`.
    """

    def __init__(
        self, bus: "TelemetryBus", floor: float | None = None
    ) -> None:
        self.bus = bus
        self.floor = floor
        self.rounds_seen = 0
        self.cum_messages = 0
        self._runs = 0
        self._started: float | None = None

    def on_run_start(self, config, machines, adversary) -> None:
        self.start_run()

    def start_run(self) -> None:
        self._runs += 1
        if self._started is None:
            self._started = self.bus._clock()

    def on_round(self, event: RoundEvent) -> None:
        self._tally(event.sent_by_correct())

    def count_round(self, round_: int, messages: int) -> None:
        self._tally(messages)

    def _tally(self, messages: int) -> None:
        self.rounds_seen += 1
        self.cum_messages += messages
        self.bus.maybe_sample()

    def accounting(self) -> dict[str, Any]:
        """The tap's JSON-safe running totals."""
        rate = None
        if self._started is not None and self.rounds_seen:
            elapsed = self.bus._clock() - self._started
            if elapsed > 0:
                rate = self.rounds_seen / elapsed
        entry: dict[str, Any] = {
            "seen": self.rounds_seen,
            "runs": self._runs,
            "cum_messages": self.cum_messages,
            "rounds_per_second": rate,
        }
        if self.floor:
            entry["vs_floor"] = self.cum_messages / self.floor
        return entry


class TelemetryBus:
    """Sampled folding of live sources into ``telemetry.snapshot`` records.

    Args:
        worldlog: the destination log (appends happen on whatever
            thread pumps the bus — callers keep pumps on the log
            owner's thread, which is why the scheduler pumps from its
            main loop and the server from the event loop).
        interval: seconds between samples; pumps inside the interval
            are one clock read and one comparison.
        metrics: an optional live registry folded into each snapshot.
        progress: an optional :class:`SweepProgress` whose accounting
            is folded into each snapshot.
        clock: monotonic time source (injectable for tests).
        source: a label naming who is sampling (``"attack"``,
            ``"sweep"``, ``"serve"``).
    """

    def __init__(
        self,
        worldlog: "WorldLog",
        *,
        interval: float = DEFAULT_INTERVAL,
        metrics: "MetricsRegistry | None" = None,
        progress: "SweepProgress | None" = None,
        clock: Callable[[], float] = time.monotonic,
        source: str = "run",
    ) -> None:
        self.worldlog = worldlog
        self.interval = parse_interval(interval, "telemetry interval")
        self.metrics = metrics
        self.progress = progress
        self.source = source
        self._clock = clock
        self._began = clock()
        self._last_sample: float | None = None
        self._seq = 0
        self._taps: list[TelemetryRoundTap] = []
        self._extra: list[
            tuple[str, Callable[[], dict[str, Any]]]
        ] = []

    def attach_metrics(self, metrics: "MetricsRegistry") -> None:
        """Fold ``metrics`` into every subsequent snapshot."""
        self.metrics = metrics

    def attach_progress(self, progress: "SweepProgress") -> None:
        """Fold ``progress.accounting()`` into every snapshot."""
        self.progress = progress

    def add_source(
        self, name: str, read: Callable[[], dict[str, Any]]
    ) -> None:
        """Register an arbitrary extra snapshot section.

        ``read`` is called at sample time and must return a JSON-safe
        dict; the section lands under ``name`` in the payload.
        """
        self._extra.append((name, read))

    def round_tap(
        self, floor: float | None = None
    ) -> TelemetryRoundTap:
        """A new per-round observer wired to this bus.

        Attach the returned tap to engine runs alongside the tracer's
        observers; its running totals appear in every snapshot's
        ``rounds`` section.
        """
        tap = TelemetryRoundTap(self, floor=floor)
        self._taps.append(tap)
        return tap

    @property
    def samples(self) -> int:
        """How many snapshots this bus has appended."""
        return self._seq

    def build_snapshot(self) -> dict[str, Any]:
        """The pure fold: one snapshot payload, no appending.

        Key order is stable (schema first), so snapshot payloads render
        deterministically modulo their sampled values.
        """
        payload: dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "seq": self._seq,
            "source": self.source,
            "uptime_seconds": self._clock() - self._began,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
            rate = self.metrics.cache_hit_rate()
            if rate is not None:
                payload["cache_hit_rate"] = rate
        if self.progress is not None:
            payload["progress"] = self.progress.accounting()
        if self._taps:
            rounds = {
                "seen": 0,
                "runs": 0,
                "cum_messages": 0,
                "rounds_per_second": None,
            }
            for tap in self._taps:
                entry = tap.accounting()
                rounds["seen"] += entry["seen"]
                rounds["runs"] += entry["runs"]
                rounds["cum_messages"] += entry["cum_messages"]
                if entry["rounds_per_second"] is not None:
                    rounds["rounds_per_second"] = (
                        rounds["rounds_per_second"] or 0.0
                    ) + entry["rounds_per_second"]
                if "vs_floor" in entry:
                    rounds["vs_floor"] = entry["vs_floor"]
            payload["rounds"] = rounds
        for name, read in self._extra:
            payload[name] = read()
        return payload

    def sample(self) -> "Record":
        """Append one snapshot now, unconditionally."""
        payload = self.build_snapshot()
        record = self.worldlog.append("telemetry.snapshot", payload)
        self._seq += 1
        self._last_sample = self._clock()
        return record

    def maybe_sample(self) -> "Record | None":
        """Append a snapshot if the interval elapsed; the hot-path pump.

        The fast path — interval not yet elapsed — is one clock read
        and one float comparison.
        """
        now = self._clock()
        if (
            self._last_sample is not None
            and now - self._last_sample < self.interval
        ):
            return None
        return self.sample()

    def close(self) -> "Record | None":
        """Append one final snapshot (the end-of-run picture).

        Skipped when nothing was ever attached *and* nothing was ever
        sampled — an idle bus leaves no record behind.
        """
        if (
            self._seq == 0
            and self.metrics is None
            and self.progress is None
            and not self._taps
            and not self._extra
        ):
            return None
        return self.sample()
