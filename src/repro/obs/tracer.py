"""Span tracing over the run ledger, with a zero-overhead no-op default.

:class:`Tracer` is the *null* tracer: every hook is a constant-return
no-op (``span`` hands back one shared :func:`~contextlib.nullcontext`,
``round_observers`` returns an empty tuple so instrumented engine runs
attach nothing), so un-traced pipelines pay one attribute check per
phase and nothing per round.  The shared :data:`NULL_TRACER` instance is
the default everywhere a tracer is accepted.

:class:`LedgerTracer` is the live implementation: spans become paired
``span-start``/``span-end`` events, counters/gauges/artifacts become
their typed events, and :meth:`LedgerTracer.round_observers` yields a
:class:`RoundTraceObserver` that turns every simulated
:class:`~repro.sim.engine.RoundEvent` into one ``engine.round`` counter
event carrying the round's correct-sender message count, wall time and
the running messages-vs-``t²/32`` ratio — the paper's quantity of
interest as a first-class time series.

The tracer is the repository's one timing instrument: the driver's
pipeline phases (fault-free probe, isolation scan, swap, merge, witness
verify, certify) emit spans through it, and per-round wall time rides on
the round events — on either engine, since the mask kernel reports its
rounds through the count-only observer hooks.  ``repro attack
--profile`` and ``repro trace`` render the same events.  Trace data is
wall-clock telemetry and is *never* part of outcome equality.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Iterator

from repro.obs.ledger import RunLedger
from repro.sim.engine import RoundEvent, RoundObserver

_NULL_CONTEXT: ContextManager[None] = nullcontext()


class Tracer:
    """The no-op tracer: zero events, zero per-round observers.

    Every hook is safe to call unconditionally; hot paths may also
    branch on :attr:`enabled` to skip argument construction entirely.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        """A timing span context — the shared no-op context here."""
        return _NULL_CONTEXT

    def counter(
        self, name: str, value: float | int = 1, **attrs: Any
    ) -> None:
        """Record a counter increment (no-op here)."""

    def gauge(self, name: str, value: float | int, **attrs: Any) -> None:
        """Record a sampled gauge value (no-op here)."""

    def round_observers(
        self, floor: float | None = None
    ) -> tuple[RoundObserver, ...]:
        """Engine observers to attach to instrumented runs (none here)."""
        return ()


NULL_TRACER = Tracer()
"""The shared zero-overhead default tracer."""


class LedgerTracer(Tracer):
    """A tracer that appends typed events to a :class:`RunLedger`.

    Args:
        ledger: the destination event log.
        cell_id: the sweep-cell correlation id stamped on every emitted
            event (``None`` outside sweeps).
    """

    enabled = True

    def __init__(
        self, ledger: RunLedger, cell_id: str | None = None
    ) -> None:
        self.ledger = ledger
        self.cell_id = cell_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Emit paired ``span-start``/``span-end`` events around the body."""
        self.ledger.emit(
            "span-start", name, cell_id=self.cell_id, **attrs
        )
        try:
            yield
        finally:
            self.ledger.emit("span-end", name, cell_id=self.cell_id)

    def counter(
        self, name: str, value: float | int = 1, **attrs: Any
    ) -> None:
        self.ledger.emit(
            "counter", name, value=value, cell_id=self.cell_id, **attrs
        )

    def gauge(self, name: str, value: float | int, **attrs: Any) -> None:
        self.ledger.emit(
            "gauge", name, value=value, cell_id=self.cell_id, **attrs
        )

    def round_observers(
        self, floor: float | None = None
    ) -> tuple[RoundObserver, ...]:
        return (RoundTraceObserver(self, floor=floor),)


class RoundTraceObserver(RoundObserver):
    """Per-round engine telemetry: one ``engine.round`` event per round.

    One instance follows a whole driver pipeline (attached to every
    engine run it launches, object engine or mask kernel alike); the
    ``run`` attribute on each event distinguishes the pipeline's
    successive simulations.  Per event: the round's correct-sender
    message count (the §2 complexity contribution), the round's wall
    time (since the previous round or the run start), the cumulative
    in-run message count and — when the ``t²/32`` floor was supplied —
    the running messages-vs-floor ratio.  Every per-round aggregate
    (message totals, mean round time) is a fold over these events.
    """

    def __init__(
        self, tracer: LedgerTracer, floor: float | None = None
    ) -> None:
        self.tracer = tracer
        self.floor = floor
        self._run = -1
        self._cum = 0
        self._mark: float | None = None

    def on_run_start(self, config, machines, adversary) -> None:
        self.start_run()

    def start_run(self) -> None:
        self._run += 1
        self._cum = 0
        self._mark = time.perf_counter()

    def on_round(self, event: RoundEvent) -> None:
        self.count_round(event.round, event.sent_by_correct())

    def count_round(self, round_: int, messages: int) -> None:
        now = time.perf_counter()
        seconds = 0.0 if self._mark is None else now - self._mark
        self._mark = now
        self._cum += messages
        attrs: dict[str, Any] = {
            "round": round_,
            "run": self._run,
            "seconds": seconds,
            "cum_messages": self._cum,
        }
        if self.floor:
            attrs["vs_floor"] = self._cum / self.floor
        self.tracer.counter("engine.round", value=messages, **attrs)
