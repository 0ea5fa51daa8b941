"""Time-travel replay: step any world log and ask "what was known?".

The world log is a total order of records; everything the system ever
derived from a run — the live ledger, the job manifest, the bound
accounting — is a fold over a prefix of that order.  This module makes
the fold explicit:

* :func:`replay_state` — the pure fold: records in, one
  :class:`ReplayState` out.  This is the *definition* of "the state at
  tick T"; every derived view of a prefix must agree with it
  (``tests/worldlog/test_replay.py`` pins that theorem against the
  golden fixture).
* :class:`ReplayCursor` — the navigable form: ``next()`` / ``prev()`` /
  ``seek(tick)`` over one log, with periodic state snapshots so
  stepping backwards re-folds from the nearest snapshot instead of
  from tick 0.  ``repro log replay`` drives it from the CLI.
* :func:`select_records` — the shared record-selection logic behind
  ``repro log show --kind/--cell/--run/--tail``.
* :func:`log_stats` — post-hoc metric extraction: new metrics computed
  from old logs without any schema migration, emitted as one JSON
  document.

The state mirrors the derived-view semantics exactly: event-derived
fields (span stacks, counters, gauges, round accounting) reset at every
``gather.start`` marker, because the ledger view reads events after the
*last* marker — a cursor positioned mid-crash sees exactly what a
derive at that prefix would have seen.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.worldlog.record import Record

STATS_SCHEMA = "repro.logstats/v1"
"""The schema tag of the ``repro log stats`` document."""

SNAPSHOT_EVERY = 256
"""Default record interval between cursor state snapshots."""


def select_records(
    records: Iterable[Record],
    kinds: Iterable[str] | None = None,
    cells: Iterable[str] | None = None,
    runs: Iterable[str] | None = None,
    tail: int | None = None,
) -> list[Record]:
    """Filter a record sequence by kind / cell / run, then keep a tail.

    The selection logic behind ``repro log show``: every filter is a
    set-membership test on the envelope (``None`` disables it), applied
    before ``tail`` keeps the last *N* survivors — so
    ``--kind ledger.event --tail 5`` means "the last five events", not
    "events among the last five records".

    Streams: with ``tail`` set, survivors flow through a bounded
    ``collections.deque`` instead of being materialized, so a
    ``--tail 5`` over a million-record log holds five records, not a
    million (``tests/worldlog/test_replay.py`` pins that with a lazy
    record source).
    """
    kind_set = set(kinds) if kinds is not None else None
    cell_set = set(cells) if cells is not None else None
    run_set = set(runs) if runs is not None else None
    selected = (
        record
        for record in records
        if (kind_set is None or record.kind in kind_set)
        and (cell_set is None or record.cell_id in cell_set)
        and (run_set is None or record.run_id in run_set)
    )
    if tail is not None and tail >= 0:
        if tail == 0:
            return []
        return list(deque(selected, maxlen=tail))
    return list(selected)


@dataclass
class ReplayState:
    """Everything the system knew after applying a record prefix.

    Event-derived fields (``events`` through ``vs_floor``) mirror the
    derived ledger view: they reset on every ``gather.start`` marker,
    so they always describe events after the *last* marker seen.
    Envelope-derived fields (plans, terminals, jobs, certificates,
    checkpoints) accumulate over the whole prefix, exactly like their
    manifest views.
    """

    tick: int = -1
    position: int = 0
    run_id: str = ""
    kind_counts: dict[str, int] = field(default_factory=dict)

    # sweep bookkeeping (whole prefix)
    planned_cells: int | None = None
    completed_cells: dict[int, str | None] = field(default_factory=dict)
    errored_cells: dict[int, str | None] = field(default_factory=dict)
    cells_seen: set[str] = field(default_factory=set)
    cells_terminal: set[str] = field(default_factory=set)

    # service bookkeeping (whole prefix)
    jobs: dict[str, dict[str, Any]] = field(default_factory=dict)
    rejections: dict[str, dict[str, int]] = field(default_factory=dict)

    # artifact bookkeeping (whole prefix)
    certificates: list[str] = field(default_factory=list)
    checkpoints: int = 0

    # observability bookkeeping (whole prefix; never feeds semantics)
    telemetry_snapshots: int = 0
    last_telemetry: dict[str, Any] | None = None

    # event-derived state (after the last gather.start marker)
    gathers: int = 0
    events: list[dict[str, Any]] = field(default_factory=list)
    span_stacks: dict[tuple[int, str | None], list[str]] = field(
        default_factory=dict
    )
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    rounds_observed: int = 0
    messages_observed: float = 0.0
    vs_floor: float | None = None

    @property
    def live_cells(self) -> list[str]:
        """Cells that have appeared but have no terminal record yet."""
        return sorted(self.cells_seen - self.cells_terminal)

    @property
    def pending_jobs(self) -> list[str]:
        """Service job keys accepted but not yet terminal, in order."""
        return [
            key
            for key, entry in self.jobs.items()
            if entry["state"] in ("queued", "running")
        ]

    @property
    def open_spans(self) -> list[tuple[int, str | None, list[str]]]:
        """Per-stream open span stacks: ``(worker, cell, names)``."""
        return [
            (worker, cell, list(stack))
            for (worker, cell), stack in sorted(
                self.span_stacks.items(),
                key=lambda item: (item[0][0], item[0][1] or ""),
            )
            if stack
        ]

    def clone(self) -> "ReplayState":
        """An independent copy (snapshot material for the cursor)."""
        return ReplayState(
            tick=self.tick,
            position=self.position,
            run_id=self.run_id,
            kind_counts=dict(self.kind_counts),
            planned_cells=self.planned_cells,
            completed_cells=dict(self.completed_cells),
            errored_cells=dict(self.errored_cells),
            cells_seen=set(self.cells_seen),
            cells_terminal=set(self.cells_terminal),
            jobs={key: dict(entry) for key, entry in self.jobs.items()},
            rejections={
                tenant: dict(kinds)
                for tenant, kinds in self.rejections.items()
            },
            certificates=list(self.certificates),
            checkpoints=self.checkpoints,
            telemetry_snapshots=self.telemetry_snapshots,
            last_telemetry=(
                dict(self.last_telemetry)
                if self.last_telemetry is not None
                else None
            ),
            gathers=self.gathers,
            events=list(self.events),
            span_stacks={
                stream: list(stack)
                for stream, stack in self.span_stacks.items()
            },
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            rounds_observed=self.rounds_observed,
            messages_observed=self.messages_observed,
            vs_floor=self.vs_floor,
        )

    def apply(self, record: Record) -> None:
        """Fold one record into the state, in log order."""
        self.tick = record.tick
        self.position += 1
        self.kind_counts[record.kind] = (
            self.kind_counts.get(record.kind, 0) + 1
        )
        if record.cell_id is not None:
            self.cells_seen.add(record.cell_id)
        payload = record.payload
        kind = record.kind

        if kind == "log.open":
            self.run_id = record.run_id
        elif kind == "sweep.plan":
            jobs = payload.get("jobs") if isinstance(payload, dict) else None
            self.planned_cells = len(jobs) if isinstance(jobs, list) else 0
        elif kind == "gather.start":
            # The ledger view reads events after the *last* marker:
            # everything event-derived starts over.
            self.gathers += 1
            self.events = []
            self.span_stacks = {}
            self.counters = {}
            self.gauges = {}
            self.rounds_observed = 0
            self.messages_observed = 0.0
            self.vs_floor = None
        elif kind == "ledger.event":
            self._apply_event(payload)
        elif kind == "cell.result":
            self.completed_cells[payload["index"]] = record.cell_id
            if record.cell_id is not None:
                self.cells_terminal.add(record.cell_id)
        elif kind == "cell.error":
            self.errored_cells[payload["index"]] = record.cell_id
            if record.cell_id is not None:
                self.cells_terminal.add(record.cell_id)
        elif kind == "checkpoint":
            self.checkpoints += 1
        elif kind == "cert.artifact":
            self.certificates.append(payload["label"])
        elif kind == "job.submitted":
            self.jobs[payload["key"]] = {
                "key": payload["key"],
                "tenant": payload["tenant"],
                "priority": payload["priority"],
                "state": "queued",
            }
        elif kind == "job.start":
            entry = self.jobs.get(payload["key"])
            if entry is not None and entry["state"] == "queued":
                entry["state"] = "running"
        elif kind == "job.result":
            entry = self.jobs.get(payload["key"])
            if entry is not None:
                entry["state"] = "done"
            if record.cell_id is not None:
                self.cells_terminal.add(record.cell_id)
        elif kind == "job.error":
            entry = self.jobs.get(payload["key"])
            if entry is not None:
                entry["state"] = "failed"
            if record.cell_id is not None:
                self.cells_terminal.add(record.cell_id)
        elif kind == "job.rejected":
            tenant = payload.get("tenant", "default")
            by_kind = self.rejections.setdefault(tenant, {})
            reason_kind = payload.get("kind", "rejected")
            by_kind[reason_kind] = by_kind.get(reason_kind, 0) + 1
            if record.cell_id is not None:
                # A rejection opens no cell: it never goes terminal.
                self.cells_terminal.add(record.cell_id)
        elif kind == "telemetry.snapshot":
            # Observability only: remember the latest sample, touch
            # nothing semantic (a telemetry-on prefix must replay to
            # the same state as its telemetry-off twin, modulo these
            # two fields).
            self.telemetry_snapshots += 1
            if isinstance(payload, dict):
                self.last_telemetry = payload

    def _apply_event(self, payload: dict[str, Any]) -> None:
        self.events.append(payload)
        kind = payload.get("kind")
        name = payload.get("name")
        if kind in ("span-start", "span-end"):
            stream = (
                payload.get("worker_id", 0),
                payload.get("cell_id"),
            )
            stack = self.span_stacks.setdefault(stream, [])
            if kind == "span-start":
                stack.append(name)
            else:
                while stack:
                    if stack.pop() == name:
                        break
        elif kind == "counter":
            value = payload.get("value") or 0
            self.counters[name] = self.counters.get(name, 0) + value
            if name == "engine.round":
                self.rounds_observed += 1
                self.messages_observed += value
                attrs = payload.get("attrs") or {}
                if "vs_floor" in attrs:
                    self.vs_floor = attrs["vs_floor"]
        elif kind == "gauge":
            self.gauges[name] = payload.get("value")
            if name == "bound.vs_floor":
                self.vs_floor = payload.get("value")


def replay_state(records: Iterable[Record]) -> ReplayState:
    """The pure fold: the state after applying every given record."""
    state = ReplayState()
    for record in records:
        state.apply(record)
    return state


class ReplayCursor:
    """Navigate one log record-by-record with materialized state.

    The cursor's *position* is the number of records applied; its
    :attr:`state` is exactly ``replay_state(records[:position])`` at
    all times (the invariant the replay tests pin).  Forward motion is
    an incremental fold; backward motion restores the nearest earlier
    snapshot (taken every ``snapshot_every`` records) and re-folds the
    remainder, so ``prev()`` over a large log never re-reads tick 0.
    """

    def __init__(
        self,
        records: Sequence[Record],
        snapshot_every: int = SNAPSHOT_EVERY,
    ) -> None:
        self.records = list(records)
        self.snapshot_every = max(1, snapshot_every)
        self._ticks = [record.tick for record in self.records]
        self._snapshots: dict[int, ReplayState] = {0: ReplayState()}
        self.state = ReplayState()
        self.position = 0

    def __len__(self) -> int:
        return len(self.records)

    @property
    def current(self) -> Record | None:
        """The most recently applied record (``None`` at position 0)."""
        if self.position == 0:
            return None
        return self.records[self.position - 1]

    def next(self) -> Record | None:
        """Apply the next record; ``None`` at the end of the log."""
        if self.position >= len(self.records):
            return None
        record = self.records[self.position]
        self.state.apply(record)
        self.position += 1
        if (
            self.position % self.snapshot_every == 0
            and self.position not in self._snapshots
        ):
            self._snapshots[self.position] = self.state.clone()
        return record

    def prev(self) -> Record | None:
        """Un-apply the last record; ``None`` at the start of the log."""
        if self.position == 0:
            return None
        record = self.records[self.position - 1]
        self._goto(self.position - 1)
        return record

    def seek(self, tick: int) -> ReplayState:
        """Position after the last record with ``record.tick <= tick``.

        Ticks are monotone, so this is a bisection; seeking past the
        end lands at the end, seeking before tick 0 lands at the empty
        state.  Returns the materialized state at that position.
        """
        self._goto(bisect_right(self._ticks, tick))
        return self.state

    def _goto(self, position: int) -> None:
        position = max(0, min(position, len(self.records)))
        if position < self.position:
            base = max(
                spot for spot in self._snapshots if spot <= position
            )
            self.state = self._snapshots[base].clone()
            self.position = base
        while self.position < position:
            self.next()


def render_state(state: ReplayState, total: int | None = None) -> str:
    """The human rendering of one cursor position (``repro log replay``)."""
    where = f"{state.position} record(s) applied"
    if total is not None:
        where = f"{state.position}/{total} record(s) applied"
    lines = [
        f"tick {state.tick} — {where}, run {state.run_id or '-'}"
    ]
    if state.kind_counts:
        lines.append(
            "records: "
            + "  ".join(
                f"{kind}×{count}"
                for kind, count in sorted(state.kind_counts.items())
            )
        )
    if state.planned_cells is not None:
        lines.append(
            f"sweep: {state.planned_cells} planned, "
            f"{len(state.completed_cells)} completed, "
            f"{len(state.errored_cells)} errored"
            + (f", {state.gathers} gather(s)" if state.gathers else "")
        )
    live = state.live_cells
    lines.append(
        "live cells: " + (", ".join(live) if live else "(none)")
    )
    if state.jobs:
        pending = state.pending_jobs
        lines.append(
            f"jobs: {len(state.jobs)} accepted, "
            f"{len(pending)} pending"
            + (
                " — " + ", ".join(key[:8] for key in pending)
                if pending
                else ""
            )
        )
    for tenant, by_kind in sorted(state.rejections.items()):
        parts = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(by_kind.items())
        )
        lines.append(f"rejections: tenant {tenant}: {parts}")
    spans = state.open_spans
    if spans:
        lines.append("open spans:")
        for worker, cell, names in spans:
            lines.append(
                f"  worker {worker} · {cell or '-'}: "
                + " > ".join(names)
            )
    if state.rounds_observed:
        floor = (
            f", vs t²/32 floor {state.vs_floor:.3f}"
            if state.vs_floor is not None
            else ""
        )
        lines.append(
            f"rounds: {state.rounds_observed} traced, "
            f"{state.messages_observed:.0f} messages{floor}"
        )
    if state.counters:
        lines.append(
            "counters: "
            + "  ".join(
                f"{name}={value:g}"
                for name, value in sorted(state.counters.items())
            )
        )
    if state.certificates:
        lines.append("certificates: " + ", ".join(state.certificates))
    if state.checkpoints:
        lines.append(f"checkpoints: {state.checkpoints}")
    if state.telemetry_snapshots:
        last = state.last_telemetry or {}
        seq = last.get("seq")
        lines.append(
            f"telemetry: {state.telemetry_snapshots} snapshot(s)"
            + (f", last seq {seq}" if seq is not None else "")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# post-hoc metric extraction
# ----------------------------------------------------------------------


def _event_cells(
    events: Sequence[dict[str, Any]],
) -> dict[str | None, list[dict[str, Any]]]:
    cells: dict[str | None, list[dict[str, Any]]] = {}
    for payload in events:
        cells.setdefault(payload.get("cell_id"), []).append(payload)
    return cells


def _cell_metrics(
    events: Sequence[dict[str, Any]],
) -> dict[str, float]:
    wall = None
    rounds = 0
    messages = 0.0
    for payload in events:
        kind, name = payload.get("kind"), payload.get("name")
        if kind == "gauge" and name == "cell.wall_seconds":
            wall = payload.get("value")
        elif kind == "counter" and name == "engine.round":
            rounds += 1
            messages += payload.get("value") or 0
    metrics = {"rounds": rounds, "messages": messages}
    if wall is not None:
        metrics["wall_seconds"] = wall
    return metrics


def log_stats(
    records: Sequence[Record], now: float | None = None
) -> dict[str, Any]:
    """Compute post-hoc metrics from an old log — no schema migration.

    The top level summarizes the run (``label`` / ``wall_seconds`` /
    ``rounds_simulated`` / ``events`` / ``messages_observed`` /
    ``cache_hit_rate``).  Further sections carry the metrics the legacy
    views never materialized: summed ledger counters (``engine.masks_built`` names the engine
    that ran), per-cell wall/round/message percentiles, flat span totals
    (certificate verify time is the ``witness-verify`` + ``certify``
    rows), and per-tenant job accounting including quota/rate
    rejections (``job.rejected`` records).
    """
    from repro.obs.report import (
        build_span_tree,
        cache_hit_rate,
        percentiles,
        span_totals,
    )
    from repro.worldlog.views import ledger_events

    state = replay_state(records)
    events = ledger_events(records)
    tree = build_span_tree(events)
    spans = span_totals(events)
    wall = sum(child.seconds for child in tree.children.values())

    per_cell = {
        cell: _cell_metrics(payloads)
        for cell, payloads in sorted(
            _event_cells(state.events).items(),
            key=lambda item: item[0] or "",
        )
        if cell is not None
    }

    rounds_simulated = state.counters.get("engine.rounds_simulated")
    if rounds_simulated is None:
        rounds_simulated = state.rounds_observed
    messages = state.gauges.get("bound.observed")
    if messages is None:
        messages = state.messages_observed

    tenants: dict[str, dict[str, Any]] = {}
    for entry in state.jobs.values():
        tenant = tenants.setdefault(
            entry["tenant"],
            {"submitted": 0, "done": 0, "failed": 0, "pending": 0},
        )
        tenant["submitted"] += 1
        state_name = entry["state"]
        if state_name == "done":
            tenant["done"] += 1
        elif state_name == "failed":
            tenant["failed"] += 1
        else:
            tenant["pending"] += 1
    for tenant_name, by_kind in state.rejections.items():
        tenant = tenants.setdefault(
            tenant_name,
            {"submitted": 0, "done": 0, "failed": 0, "pending": 0},
        )
        tenant["rejected"] = dict(sorted(by_kind.items()))

    document: dict[str, Any] = {
        "schema": STATS_SCHEMA,
        "label": f"log/{state.run_id or 'unknown'}",
        "records": len(records),
        "wall_seconds": wall,
        "rounds_simulated": int(rounds_simulated),
        "messages_observed": messages,
        "events": len(state.events),
        "cache_hit_rate": cache_hit_rate(events),
        "counters": dict(sorted(state.counters.items())),
        "spans": spans,
        "tenants": tenants,
        "cells": per_cell,
        "percentiles": {
            metric: percentiles(
                [
                    cell[metric]
                    for cell in per_cell.values()
                    if metric in cell
                ]
            )
            for metric in ("wall_seconds", "rounds", "messages")
        },
    }
    if now is not None:
        document["ts"] = now
    if state.certificates:
        document["certificates"] = len(state.certificates)
        verify = sum(
            spans.get(name, {}).get("seconds", 0.0)
            for name in ("witness-verify", "certify")
        )
        document["certificate_verify_seconds"] = verify
    return document
