"""Time-travel replay: step any world log and ask "what was known?".

The world log is a total order of records; everything the system ever
derived from a run — the live ledger, the job manifest, the bound
accounting — is a fold over a prefix of that order.  This module makes
the fold explicit:

* :func:`replay_state` — the pure fold: records in, one
  :class:`ReplayState` out.  This is the *definition* of "the state at
  tick T"; every derived view of a prefix must agree with it
  (``tests/worldlog/test_replay.py`` pins that theorem against the
  golden fixture).  It is also the one fold every log reader renders:
  ``log stats``, ``log replay``, ``top --log``, ``trace`` and ``metrics
  export`` (through its :class:`~repro.obs.report.LedgerFold`), the
  ``jobs.json`` manifest, and crash-resume's
  :func:`~repro.service.queue.recover_jobs`, whose fold ``repro serve``
  keeps as its live job state and reads its run order from.  The
  differ applies the fold's :data:`GATHER_MARKER` rule with a scan.
* :class:`ReplayCursor` — the navigable form: ``next()`` / ``prev()`` /
  ``seek(tick)`` over one log, with periodic state snapshots so
  stepping backwards re-folds from the nearest snapshot instead of
  from tick 0.  ``repro log replay`` drives it from the CLI.
* :func:`select_records` — the shared record-selection logic behind
  ``repro log show --kind/--cell/--run/--tail``.
* :func:`log_stats` — post-hoc metric extraction: new metrics computed
  from old logs without any schema migration, emitted as one JSON
  document.

The state mirrors the derived-view semantics exactly: the ledger view
(the events and their fold: spans, counters, gauges, rounds) resets at
every ``gather.start`` marker, because the derived ledger view reads
events after the *last* marker — a cursor positioned mid-crash sees
exactly what a derive at that prefix would have seen.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

from repro.obs.ledger import LedgerEvent
from repro.obs.report import LedgerFold, Tally, percentiles
from repro.worldlog.record import Record

STATS_SCHEMA = "repro.logstats/v1"
"""The schema tag of the ``repro log stats`` document."""

SNAPSHOT_EVERY = 256
"""Default record interval between cursor state snapshots."""

GATHER_MARKER = "gather.start"
"""The record kind at which the ledger view starts over: the fold resets
its event-derived state there, and the differ drops the events before
the last one."""

JOBS_SCHEMA = "repro.jobs/v1"
"""The schema tag of the job manifest (``jobs.json``, the ``jobs`` RPC)."""


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
    if tail is not None:
        if tail == 0:
            return []
        return list(deque(selected, maxlen=tail))
    return list(selected)


@dataclass
class ReplayState:
    """Everything the system knew after applying a record prefix.

    The one fold of a world log.  Envelope-derived fields (cells, jobs,
    certificates) accumulate over the whole prefix.  The ledger view —
    ``events``, the ``ledger.event`` payloads, ``ledger_events``, the
    :class:`~repro.obs.ledger.LedgerEvent` built from each, and
    ``ledger``, their :class:`~repro.obs.report.LedgerFold` — resets on
    every :data:`GATHER_MARKER`, so it always describes the events
    after the *last* marker seen, exactly like the derived ledger view
    and the differ.

    ``jobs`` holds one ``jobs.json`` manifest entry per job key, moved
    through ``queued`` → ``running`` → ``done`` / ``failed`` by the
    key's ``job.submitted`` / ``job.start`` / ``job.result`` /
    ``job.error`` records, the only place a job's tenant, priority and
    state live; ``pending_jobs`` orders the keys with no terminal record
    by acceptance (a dict as an ordered set); ``terminals`` keeps each
    key's terminal record, the recorded result crash-resume answers
    from, and ``job_records`` every ``job.*`` record per key in log
    order, the lifecycle a ``watch`` replays.
    """

    tick: int = -1
    position: int = 0
    run_id: str = ""
    kind_counts: dict[str, int] = field(default_factory=dict)

    # cell bookkeeping (whole prefix)
    cells_seen: set[str] = field(default_factory=set)
    cells_terminal: set[str] = field(default_factory=set)

    # job bookkeeping (whole prefix)
    jobs: dict[str, dict[str, Any]] = field(default_factory=dict)
    pending_jobs: dict[str, None] = field(default_factory=dict)
    terminals: dict[str, Record] = field(default_factory=dict)
    job_records: dict[str, list[Record]] = field(default_factory=dict)
    rejections: dict[str, dict[str, int]] = field(default_factory=dict)

    # artifact bookkeeping (whole prefix)
    certificates: list[str] = field(default_factory=list)

    # the ledger view (after the last gather.start marker)
    events: list[dict[str, Any]] = field(default_factory=list)
    ledger_events: list[LedgerEvent] = field(default_factory=list)
    ledger: LedgerFold = field(default_factory=LedgerFold)

    @property
    def live_cells(self) -> list[str]:
        """Cells that have appeared but have no terminal record yet."""
        return sorted(self.cells_seen - self.cells_terminal)

    @property
    def queued_jobs(self) -> list[str]:
        """Queued job keys in run order: highest priority first, then
        acceptance order (``sorted`` is stable)."""
        jobs = self.jobs
        queued = [k for k in self.pending_jobs if jobs[k]["state"] == "queued"]
        return sorted(queued, key=lambda key: -jobs[key]["priority"])

    def manifest(self) -> dict[str, Any]:
        """The job manifest (schema :data:`JOBS_SCHEMA`): a copy of each
        ``jobs`` entry, in submission order."""
        return {
            "schema": JOBS_SCHEMA,
            "jobs": [dict(entry) for entry in self.jobs.values()],
        }

    def clone(self) -> "ReplayState":
        """An independent copy (snapshot material for the cursor)."""
        return replace(
            self,
            kind_counts=dict(self.kind_counts),
            cells_seen=set(self.cells_seen),
            cells_terminal=set(self.cells_terminal),
            jobs={key: dict(entry) for key, entry in self.jobs.items()},
            pending_jobs=dict(self.pending_jobs),
            terminals=dict(self.terminals),
            job_records={
                key: list(records)
                for key, records in self.job_records.items()
            },
            rejections={
                tenant: dict(kinds)
                for tenant, kinds in self.rejections.items()
            },
            certificates=list(self.certificates),
            events=list(self.events),
            ledger_events=list(self.ledger_events),
            ledger=self.ledger.clone(),
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
        if kind.startswith("job.") and isinstance(payload, dict):
            key = payload.get("key")
            if isinstance(key, str):
                self.job_records.setdefault(key, []).append(record)

        if kind == "log.open":
            self.run_id = record.run_id
        elif kind == GATHER_MARKER:
            # The ledger view reads events after the *last* marker:
            # everything event-derived starts over.
            self.events = []
            self.ledger_events = []
            self.ledger = LedgerFold()
        elif kind == "ledger.event":
            event = LedgerEvent.from_payload(payload)
            self.events.append(payload)
            self.ledger_events.append(event)
            self.ledger.add(event)
        elif kind == "cert.artifact":
            self.certificates.append(payload["label"])
        elif kind == "job.submitted":
            self.jobs[payload["key"]] = {
                "key": payload["key"],
                "tenant": payload["tenant"],
                "priority": payload["priority"],
                "job": payload["job"],
                "state": "queued",
                "submitted_tick": record.tick,
                "terminal_tick": None,
            }
            self.pending_jobs[payload["key"]] = None
        elif kind == "job.start":
            entry = self.jobs.get(payload.get("key"))
            if entry is not None and entry["state"] == "queued":
                entry["state"] = "running"
        elif kind in ("job.result", "job.error"):
            self.terminals[payload["key"]] = record
            self.pending_jobs.pop(payload["key"], None)
            entry = self.jobs.get(payload["key"])
            if entry is not None:
                entry["terminal_tick"] = record.tick
                if kind == "job.result":
                    entry["state"] = "done"
                else:
                    entry["state"] = "failed"
                    entry["error_kind"] = payload["error_kind"]
                    entry["message"] = payload["message"]
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
    ledger = state.ledger
    spans = ledger.open_spans
    if spans:
        lines.append("open spans:")
        for worker, cell, names in spans:
            lines.append(
                f"  worker {worker} · {cell or '-'}: "
                + " > ".join(names)
            )
    if ledger.rounds:
        floor = (
            f", vs t²/32 floor {ledger.vs_floor:.3f}"
            if ledger.vs_floor is not None
            else ""
        )
        lines.append(
            f"rounds: {len(ledger.rounds)} traced, "
            f"{ledger.messages:.0f} messages{floor}"
        )
    if ledger.counters:
        lines.append(
            "counters: "
            + "  ".join(
                f"{name}={value:g}"
                for name, value in sorted(ledger.counters.items())
            )
        )
    if state.certificates:
        lines.append("certificates: " + ", ".join(state.certificates))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# post-hoc metric extraction
# ----------------------------------------------------------------------


def _cell_row(tally: Tally) -> dict[str, float]:
    row = {"rounds": len(tally.rounds), "messages": tally.messages}
    if "cell.wall_seconds" in tally.gauges:
        row["wall_seconds"] = tally.gauges["cell.wall_seconds"]
    bound = tally.bound()
    if bound is not None:
        row["vs_floor"], _, floor = bound
        if floor is not None:
            row["floor"] = floor
    return row


def log_stats(
    records: Sequence[Record], now: float | None = None
) -> dict[str, Any]:
    """Compute post-hoc metrics from an old log — no schema migration.

    One :func:`replay_state` pass; everything below reads its fold.
    The top level summarizes the run (``label`` / ``wall_seconds`` /
    ``rounds_simulated`` / ``events`` / ``messages_observed`` /
    ``cache_hit_rate``).  Further sections carry the metrics the derived
    views never materialize: summed ledger counters (``engine.masks_built`` names the engine
    that ran), per-cell wall/round/message percentiles (a cell that
    recorded ``bound.*`` gauges also carries its ``floor`` and
    ``vs_floor``, read as ``repro trace`` reads them), flat span totals
    (certificate verify time is the ``witness-verify`` + ``certify``
    rows), and per-tenant job accounting including quota/rate
    rejections (``job.rejected`` records).
    """
    state = replay_state(records)
    ledger = state.ledger
    spans = {
        name: {"seconds": total.seconds, "count": total.count}
        for name, total in sorted(ledger.spans.items())
    }
    per_cell = {
        cell: _cell_row(tally) for cell, tally in sorted(ledger.cells.items())
    }

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
        "wall_seconds": ledger.wall_seconds,
        "rounds_simulated": int(
            ledger.counters.get("engine.rounds_simulated", len(ledger.rounds))
        ),
        "messages_observed": ledger.gauges.get(
            "bound.observed", ledger.messages
        ),
        "events": ledger.events,
        "cache_hit_rate": ledger.hit_rate(),
        "counters": dict(sorted(ledger.counters.items())),
        "spans": spans,
        "tenants": tenants,
        "cells": per_cell,
        "percentiles": {
            metric: percentiles(
                [
                    row[metric]
                    for row in per_cell.values()
                    if metric in row
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
