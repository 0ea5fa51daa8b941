"""The typed record envelope every world-log line carries.

A :class:`Record` is the one wire format of the world log: a monotone
``tick`` (the log's total order), a ``kind`` from :data:`KINDS`, the
``run_id`` / ``cell_id`` / ``worker_id`` correlation triple the run
ledger established, and a JSON-safe ``payload`` whose key order is
preserved *verbatim* — derived views re-render payloads byte-for-byte,
so the envelope must not re-sort what a writer serialized.

Two renderings:

* :meth:`Record.to_json` — the persisted JSONL line (fixed envelope key
  order, payload verbatim);
* :meth:`Record.canonical` — the :func:`~repro.sim.serialization
  .canonical_json` form (sorted keys, tight separators) for digests and
  cross-log comparison.

:func:`log_order_signature` generalizes the run ledger's
``order_signature`` to whole logs: the backend- and wall-clock-
independent ``(kind, name, cell_id)`` sequence.

>>> record = Record(tick=0, kind="log.open",
...                 payload={"schema": WORLDLOG_SCHEMA}, run_id="demo")
>>> print(record.to_json())
{"tick": 0, "kind": "log.open", "run_id": "demo", "cell_id": null, "worker_id": 0, "payload": {"schema": "repro.worldlog/v1"}}
>>> Record.from_json(record.to_json()) == record
True
>>> log_order_signature([record])
[('log.open', None, None)]
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from repro.sim.serialization import canonical_json

WORLDLOG_SCHEMA = "repro.worldlog/v1"
"""The schema tag carried by every log's opening record."""

KINDS = (
    "log.open",
    "sweep.plan",
    "gather.start",
    "ledger.event",
    "cell.result",
    "cell.error",
    "checkpoint",
    "cert.artifact",
    "job.submitted",
    "job.start",
    "job.result",
    "job.error",
    "job.rejected",
    "telemetry.snapshot",
)
"""The typed record vocabulary, in documentation order.

* ``log.open`` — the header: schema tag plus the run id; always tick 0.
* ``sweep.plan`` — the full job matrix of a scheduled sweep (one record
  per run; resume verifies the plan matches before skipping cells).
* ``gather.start`` — marks the start of a sweep's gather step; the
  ledger view reads events after the *last* marker, so a crash during a
  gather never duplicates events in the derived view.
* ``ledger.event`` — one :class:`~repro.obs.ledger.LedgerEvent`,
  mirrored verbatim as it lands in the live run ledger.
* ``cell.result`` / ``cell.error`` — a sweep cell's terminal record
  (the crash-resume unit): the full decoded-or-decodable job result, or
  the structured failure.
* ``checkpoint`` — an in-band driver checkpoint note (fault-free run
  snapshotted for Lemma-4 prefix resume).
* ``cert.artifact`` — a portable attack certificate, carried as its
  canonical JSON text.
* ``job.submitted`` / ``job.start`` / ``job.result`` / ``job.error`` —
  the attack service's job lifecycle (:mod:`repro.service`): one
  acceptance record per idempotent job key, an optional start marker
  per execution attempt, and **exactly one** terminal record per
  accepted job — the invariant a killed-and-restarted ``repro serve``
  resumes on.  The ``jobs`` derived view renders these as the
  ``jobs.json`` manifest.
* ``job.rejected`` — a quota/rate rejection at admission time: key,
  tenant, rejection kind and reason.  Pure observability (``repro log
  stats`` folds these into per-tenant rejection counts): a rejected
  submission enters no queue, charges no quota, and is ignored by the
  recovery fold and the jobs manifest.
* ``telemetry.snapshot`` — one sampled :class:`~repro.obs.telemetry
  .TelemetryBus` snapshot: the live metrics registry, sweep-progress
  accounting and round-tap rates folded into a single record.  Pure
  observability like ``job.rejected``: ignored by the recovery fold,
  the jobs manifest and sweep resume, and dropped by the semantic
  differ (:func:`~repro.worldlog.diffing.comparable_records`), so runs
  with and without telemetry stay semantically identical.
"""


@dataclass(frozen=True)
class Record:
    """One world-log line: envelope plus verbatim payload.

    Attributes:
        tick: the record's position in the log's total order (monotone,
            0-based, assigned by the :class:`~repro.worldlog.store
            .WorldLog` appender).
        kind: one of :data:`KINDS`.
        payload: the JSON-safe body; dict key order is preserved through
            persistence (views depend on it for byte-identity).
        run_id: the top-level run that appended the record.
        cell_id: the sweep cell the record belongs to (``None`` outside
            cells).
        worker_id: the OS process id of the appender.
    """

    tick: int
    kind: str
    payload: Any
    run_id: str = ""
    cell_id: str | None = None
    worker_id: int = 0

    def to_json(self) -> str:
        """The persisted JSONL line (envelope keys fixed, payload verbatim)."""
        return json.dumps(
            {
                "tick": self.tick,
                "kind": self.kind,
                "run_id": self.run_id,
                "cell_id": self.cell_id,
                "worker_id": self.worker_id,
                "payload": self.payload,
            }
        )

    def canonical(self) -> str:
        """The canonical-JSON rendering (for digests, never persisted)."""
        return canonical_json(
            {
                "tick": self.tick,
                "kind": self.kind,
                "run_id": self.run_id,
                "cell_id": self.cell_id,
                "worker_id": self.worker_id,
                "payload": self.payload,
            }
        )

    @property
    def align_key(self) -> tuple[str, str | None, str | None]:
        """The wall-clock-independent alignment key ``(kind, name, cell_id)``.

        One element of :func:`log_order_signature`; the key the
        semantic differ (:mod:`repro.worldlog.diffing`) aligns two
        logs by, so ticks and timestamps never count as divergence.
        """
        return (self.kind, self.name, self.cell_id)

    @property
    def name(self) -> str | None:
        """The payload's ``name`` field, when it carries one.

        ``ledger.event`` payloads always do; other kinds usually don't.
        The order signature uses this as its middle component.
        """
        if isinstance(self.payload, dict):
            name = self.payload.get("name")
            if isinstance(name, str):
                return name
        return None

    @classmethod
    def from_json(cls, line: str) -> "Record":
        """Parse one persisted line back into a record."""
        raw = json.loads(line)
        if not isinstance(raw, dict):
            raise ValueError("world-log record is not an object")
        record = cls(
            tick=raw["tick"],
            kind=raw["kind"],
            payload=raw["payload"],
            run_id=raw.get("run_id", ""),
            cell_id=raw.get("cell_id"),
            worker_id=raw.get("worker_id", 0),
        )
        if not isinstance(record.tick, int) or not isinstance(
            record.kind, str
        ):
            raise ValueError("world-log envelope fields have wrong types")
        return record


def log_order_signature(
    records: Iterable[Record],
) -> list[tuple[str, str | None, str | None]]:
    """The wall-clock-independent record order: ``(kind, name, cell_id)``.

    Generalizes :func:`repro.obs.ledger.order_signature` from ledger
    events to whole logs: ticks, timestamps, worker ids and run ids
    legitimately differ between backends and between interrupted-and-
    resumed versus uninterrupted runs; this sequence must not.
    """
    return [record.align_key for record in records]
