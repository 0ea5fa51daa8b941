"""The append-only structured run ledger.

One pipeline run — an attack, a sweep, an experiment — produces one
*ledger*: an ordered sequence of typed :class:`LedgerEvent` records that
every telemetry producer (the span tracer, the round observer, the
driver's end-of-pipeline totals, the sweep scheduler) appends to.  The
ledger is the single correlated event stream the repository's
observability is built on.  The world log
persists it (one ``ledger.event`` record per event), ``repro trace``
renders it and ``repro log stats`` folds it into per-run metrics.

Event model
-----------

Every event carries

* a ``kind`` from :data:`EVENT_KINDS` — ``span-start``/``span-end``
  (wall-clock spans, paired by name and nesting), ``counter`` (a
  monotone occurrence count), ``gauge`` (a sampled value), and
  ``artifact`` (a reference to a produced artifact such as a
  certificate);
* a monotonic ``ts`` from :func:`time.perf_counter` — comparable (and
  meaningful as a duration source) only *within* one
  ``(run_id, worker_id)`` stream, never across processes;
* the correlation triple ``run_id`` / ``cell_id`` / ``worker_id``: which
  top-level run, which sweep cell (``None`` outside sweeps) and which OS
  process produced the event.

Cross-process protocol
----------------------

Worker processes never share a ledger.  Each worker appends to its own
:class:`RunLedger` and ships the picklable event tuple
(:meth:`RunLedger.segment`) home inside its job result; the scheduler
*splices* the segments into the parent ledger in deterministic cell
order (:meth:`RunLedger.splice`), rewriting each event's ``run_id`` to
the parent's.  Because cell simulations are deterministic, the spliced
event *order* — the ``(kind, name, cell_id)`` sequence — is identical
whichever backend ran the cells; only timestamps, worker ids and the
run id differ (and are therefore excluded from outcome equality).

Worked example::

    >>> ticks = iter(range(10))
    >>> ledger = RunLedger(run_id="demo", worker_id=7,
    ...                    clock=lambda: float(next(ticks)))
    >>> _ = ledger.emit("counter", "cache.hits", value=3)
    >>> _ = ledger.emit("gauge", "bound.vs_floor", value=1.5,
    ...                 cell_id="attack/silent/n12/t8")
    >>> [event.kind for event in ledger.events]
    ['counter', 'gauge']
    >>> print(ledger.events[0].to_json())
    {"ts": 0.0, "kind": "counter", "name": "cache.hits", "value": 3, "run_id": "demo", "cell_id": null, "worker_id": 7, "attrs": {}}
    >>> LedgerEvent.from_json(ledger.events[0].to_json()) == ledger.events[0]
    True

Splicing a worker segment rewrites the run id but keeps the worker id,
so the correlation triple stays truthful::

    >>> worker = RunLedger(run_id="scratch", worker_id=41,
    ...                    clock=lambda: 0.5)
    >>> _ = worker.emit("counter", "engine.round", value=12,
    ...                 cell_id="attack/silent/n12/t8")
    >>> ledger.splice(worker.segment())
    1
    >>> ledger.events[-1].run_id, ledger.events[-1].worker_id
    ('demo', 41)
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

EVENT_KINDS = ("span-start", "span-end", "counter", "gauge", "artifact")
"""The typed event vocabulary, in documentation order."""


def new_run_id() -> str:
    """A short random correlation id for one top-level pipeline run."""
    return uuid.uuid4().hex[:12]


def cell_label(key: tuple) -> str:
    """The canonical ``cell_id`` string for a sweep cell key.

    >>> cell_label(("attack", "silent", 12, 8))
    'attack/silent/n12/t8'
    """
    kind, builder, n, t = key
    return f"{kind}/{builder}/n{n}/t{t}"


def job_label(key: tuple, job_key: str) -> str:
    """The canonical ``cell_id`` string for one attack-service job.

    Extends :func:`cell_label` with a ``#``-suffixed prefix of the
    job's idempotent key, so two submissions of the same ``(kind,
    builder, n, t)`` cell with different options stay distinguishable
    in the correlated event stream.

    >>> job_label(("attack", "silent", 12, 8), "0f3a9b2c41d5e6f7")
    'job/attack/silent/n12/t8#0f3a9b2c'
    """
    return f"job/{cell_label(key)}#{job_key[:8]}"


@dataclass(frozen=True)
class LedgerEvent:
    """One typed, correlated telemetry record.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        name: the event's dotted metric/span name (e.g. ``cache.hits``).
        ts: monotonic seconds (``time.perf_counter``) in the *emitting
            process's* clock; only deltas within one ``(run_id,
            worker_id)`` stream are meaningful.
        value: the numeric (or short string) payload; ``None`` for pure
            span markers.
        run_id: the top-level run this event belongs to.
        cell_id: the sweep cell (``None`` outside sweeps).
        worker_id: the OS process id that emitted the event.
        attrs: sorted ``(key, value)`` pairs of JSON-safe extra
            attributes (round numbers, phase parameters, verdicts).
    """

    kind: str
    name: str
    ts: float
    value: float | int | str | None = None
    run_id: str = ""
    cell_id: str | None = None
    worker_id: int = 0
    attrs: tuple[tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        """The attribute stored under ``key`` (or ``default``)."""
        for name, value in self.attrs:
            if name == key:
                return value
        return default

    def to_json(self) -> str:
        """One JSON Lines record with a fixed, stable key order."""
        return json.dumps(
            {
                "ts": self.ts,
                "kind": self.kind,
                "name": self.name,
                "value": self.value,
                "run_id": self.run_id,
                "cell_id": self.cell_id,
                "worker_id": self.worker_id,
                "attrs": dict(self.attrs),
            }
        )

    @classmethod
    def from_json(cls, line: str) -> "LedgerEvent":
        """Parse one JSON Lines record back into an event."""
        return cls.from_payload(json.loads(line))

    @classmethod
    def from_payload(cls, raw: dict[str, Any]) -> "LedgerEvent":
        """The event a parsed :meth:`to_json` object (a world log's
        ``ledger.event`` payload) describes."""
        return cls(
            kind=raw["kind"],
            name=raw["name"],
            ts=raw["ts"],
            value=raw.get("value"),
            run_id=raw.get("run_id", ""),
            cell_id=raw.get("cell_id"),
            worker_id=raw.get("worker_id", 0),
            attrs=tuple(sorted(raw.get("attrs", {}).items())),
        )


class RunLedger:
    """An append-only in-memory event log.

    Args:
        run_id: the run correlation id (random when omitted).
        worker_id: the emitting process id (``os.getpid()`` when
            omitted).
        clock: the monotonic timestamp source (injectable for
            deterministic tests and doctests).
        sink: optional callback invoked with every event as it is
            appended — emitted *and* spliced, in append order.  This is
            how the world log persists a live ledger
            (``RunLedger(sink=worldlog.record_event)``): the derived
            ledger view then holds every event's
            :meth:`LedgerEvent.to_json` line, in append order.  The
            sink observes; it never mutates.
    """

    def __init__(
        self,
        run_id: str | None = None,
        worker_id: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        sink: Callable[[LedgerEvent], None] | None = None,
    ) -> None:
        self.run_id = new_run_id() if run_id is None else run_id
        self.worker_id = os.getpid() if worker_id is None else worker_id
        self._clock = clock
        self._sink = sink
        self.events: list[LedgerEvent] = []

    def _append(self, event: LedgerEvent) -> None:
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)

    def __len__(self) -> int:
        return len(self.events)

    def emit(
        self,
        kind: str,
        name: str,
        value: float | int | str | None = None,
        cell_id: str | None = None,
        **attrs: Any,
    ) -> LedgerEvent:
        """Append one event stamped with this ledger's correlation ids."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
            )
        event = LedgerEvent(
            kind=kind,
            name=name,
            ts=self._clock(),
            value=value,
            run_id=self.run_id,
            cell_id=cell_id,
            worker_id=self.worker_id,
            attrs=tuple(sorted(attrs.items())),
        )
        self._append(event)
        return event

    def segment(self) -> tuple[LedgerEvent, ...]:
        """This ledger's events as a picklable, shippable buffer."""
        return tuple(self.events)

    def splice(self, segment: Iterable[LedgerEvent]) -> int:
        """Append a shipped segment, rewriting ``run_id`` to this run's.

        Worker ids and timestamps are preserved — they identify the
        producing process and its clock.  Returns the number of events
        spliced.
        """
        count = 0
        for event in segment:
            self._append(replace(event, run_id=self.run_id))
            count += 1
        return count


def order_signature(
    events: Iterable[LedgerEvent],
) -> list[tuple[str, str, str | None]]:
    """The backend-independent event order: ``(kind, name, cell_id)``.

    Timestamps, worker ids and run ids legitimately differ between the
    serial and process sweep backends; the *sequence* of this triple
    must not (asserted by the cross-process splice tests).
    """
    return [
        (event.kind, event.name, event.cell_id) for event in events
    ]
