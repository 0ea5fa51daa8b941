"""The typed record envelope every world-log line carries.

A :class:`Record` is the one wire format of the world log: a monotone
``tick`` (the log's total order), a ``kind`` from :data:`KINDS`, the
``run_id`` / ``cell_id`` / ``worker_id`` correlation triple the run
ledger established, and a JSON-safe ``payload`` whose key order is
preserved *verbatim* — derived views re-render payloads byte-for-byte,
so the envelope must not re-sort what a writer serialized.

:meth:`Record.to_json` renders the persisted JSONL line (fixed envelope
key order, payload verbatim).

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


WORLDLOG_SCHEMA = "repro.worldlog/v1"
"""The schema tag carried by every log's opening record."""

KINDS = (
    "log.open",
    "gather.start",
    "ledger.event",
    "cert.artifact",
    "job.submitted",
    "job.start",
    "job.result",
    "job.error",
    "job.rejected",
)
"""The typed record vocabulary, in documentation order.

* ``log.open`` — the header: schema tag plus the run id; always tick 0.
* ``gather.start`` — marks the start of a sweep's gather step; the
  ledger view reads events after the *last* marker, so a crash during a
  gather never duplicates events in the derived view.
* ``ledger.event`` — one :class:`~repro.obs.ledger.LedgerEvent`,
  mirrored verbatim as it lands in the live run ledger.
* ``cert.artifact`` — a portable attack certificate, carried as its
  canonical JSON text.
* ``job.submitted`` / ``job.start`` / ``job.result`` / ``job.error`` —
  the one job lifecycle, written by the attack service
  (:mod:`repro.service`) and the sweep scheduler alike: one acceptance
  record per idempotent job key (a sweep writes its whole matrix up
  front, tenant ``sweep``), an optional start marker per execution
  attempt (the service only), and **exactly one** terminal record per
  accepted job — the crash-resume unit a killed-and-restarted
  ``repro serve`` and a SIGKILLed sweep both resume on, through
  :func:`~repro.service.queue.recover_jobs`.  The ``jobs`` derived
  view renders these as the ``jobs.json`` manifest.
* ``job.rejected`` — a quota/rate rejection at admission time: key,
  tenant, rejection kind and reason.  Pure observability (``repro log
  stats`` folds these into per-tenant rejection counts): a rejected
  submission enters no queue, charges no quota, and is ignored by the
  recovery fold and the jobs manifest.

Retired kinds (``checkpoint``, ``telemetry.snapshot``, ...) in older
logs still read: they list in ``repro log show``, derive nothing and
count only in the replay fold's ``kind_counts``.
"""


class _Absent:
    """The type of a payload field a writer may leave out."""


_NONE = type(None)
_NUMBER = (int, float)

_Types = type | tuple[type, ...]

PAYLOAD_FIELDS: dict[str, tuple[tuple[str, _Types], ...]] = {
    "ledger.event": (
        ("kind", str),
        ("name", str),
        ("ts", _NUMBER),
        ("value", (*_NUMBER, str, _NONE, _Absent)),
        ("run_id", (str, _Absent)),
        ("cell_id", (str, _NONE, _Absent)),
        ("worker_id", (int, _Absent)),
        ("attrs", (dict, _Absent)),
    ),
    "cert.artifact": (("label", str), ("text", str)),
    "job.submitted": (
        ("key", str), ("tenant", str), ("priority", int), ("job", dict),
    ),
    "job.start": (("key", str),),
    "job.result": (("key", str), ("result", dict)),
    "job.error": (("key", str), ("error_kind", str), ("message", str)),
    "job.rejected": (("tenant", (str, _Absent)), ("kind", (str, _Absent))),
}
"""The payload fields each kind's readers rely on, with their types.

A field whose types include ``_Absent`` may be left out.  Kinds not
listed here (``log.open``, ``gather.start``, retired kinds) are read
without looking inside their payload.
"""


def payload_problem(kind: str, payload: Any) -> str | None:
    """Why ``payload`` cannot be a ``kind`` record's, or ``None``.

    The one payload shape check: the world-log readers
    (:func:`~repro.worldlog.store.read_records` and
    :class:`~repro.worldlog.store.LogTailer`) apply it to every line
    they parse, and the job recovery fold to the records it is handed,
    so no reader of a record sequence checks a payload itself.

    >>> payload_problem("job.start", {"key": "aa"}) is None
    True
    >>> payload_problem("job.start", {})
    "no str field 'key'"
    """
    for name, types in PAYLOAD_FIELDS.get(kind, ()):
        if isinstance(payload, dict) and isinstance(
            payload.get(name, _Absent()), types
        ):
            continue
        allowed = types if isinstance(types, tuple) else (types,)
        expected = " or ".join(
            "null" if cls is _NONE else cls.__name__
            for cls in allowed
            if cls is not _Absent
        )
        return f"no {expected} field {name!r}"
    if (
        kind == "ledger.event"
        and payload["kind"] != "artifact"
        and isinstance(payload.get("value"), str)
    ):
        # Only artifact events carry a string value (the artifact's
        # reference); counters and gauges are summed and compared.
        return f"a non-numeric value on a {payload['kind']} event"
    return None


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
        if not (
            isinstance(record.tick, int)
            and isinstance(record.kind, str)
            and isinstance(record.run_id, str)
            and isinstance(record.cell_id, (str, _NONE))
            and isinstance(record.worker_id, int)
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
