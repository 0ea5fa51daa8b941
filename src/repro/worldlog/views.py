"""Derived views: the published artifacts, rendered from a world log.

Nothing here is a second source of truth — a view is a pure function of
the record sequence, re-runnable at any time (``repro log derive``),
and pinned byte for byte by the golden fixtures under
``tests/worldlog/golden``:

* **ledger** — ``ledger.jsonl``: every ``ledger.event`` payload as one
  JSONL line, exactly the live ledger's
  :meth:`~repro.obs.ledger.LedgerEvent.to_json` lines.  For sweep logs
  the view reads events after the *last* ``gather.start`` marker, so a
  crash mid-gather (which would otherwise duplicate spliced events on
  resume) cannot corrupt the view.
* **certificates** — ``certificates/<label>.cert.json``: each
  ``cert.artifact``'s canonical JSON text, exactly the bytes
  ``Certificate.to_bytes`` ships.
* **jobs** — ``jobs.json``: the manifest of service and sweep jobs
  (schema ``repro.jobs/v1``), folding each job's ``job.submitted`` /
  ``job.start`` / ``job.result`` / ``job.error`` records into one entry
  per idempotent job key.  ``repro jobs --log`` renders the same
  manifest without materializing it.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.worldlog.record import Record

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.ledger import LedgerEvent

JOBS_SCHEMA = "repro.jobs/v1"
"""The schema tag of the derived service job manifest."""


def after_last_gather(records: Sequence[Record]) -> Sequence[Record]:
    """Records after the last ``gather.start`` marker (all, if none).

    The crash-mid-gather rule every event consumer shares: the ledger
    view, the replay cursor's event-derived state and the semantic
    differ all read ledger events through this window, so a resumed
    log's re-spliced events never double-count anywhere.
    """
    last = None
    for index, record in enumerate(records):
        if record.kind == "gather.start":
            last = index
    return records if last is None else records[last + 1 :]


def ledger_lines(records: Sequence[Record]) -> list[str]:
    """The derived ledger view as JSONL lines (no trailing newlines)."""
    return [
        json.dumps(record.payload)
        for record in after_last_gather(records)
        if record.kind == "ledger.event"
    ]


def ledger_events(records: Sequence[Record]) -> "list[LedgerEvent]":
    """The derived ledger view as live events (for ``repro trace``)."""
    from repro.obs.ledger import LedgerEvent

    return [
        LedgerEvent.from_json(line) for line in ledger_lines(records)
    ]


def certificate_texts(records: Iterable[Record]) -> dict[str, str]:
    """Label → canonical certificate JSON text, in record order."""
    texts: dict[str, str] = {}
    for record in records:
        if record.kind == "cert.artifact":
            texts[record.payload["label"]] = record.payload["text"]
    return texts


def jobs_manifest(records: Iterable[Record]) -> dict[str, Any]:
    """The derived service job manifest (one entry per job key).

    Entries appear in submission order and fold the job's lifecycle
    records into a single summary: the accepted spec and its tenant /
    priority, the current state (``queued`` → ``running`` → ``done`` /
    ``failed``), the ticks of the acceptance and terminal records, and
    — for failed jobs — the structured error kind and message.  The
    full terminal payloads stay in the log; the manifest is the
    operator's index, not a second source of truth.
    """
    jobs: dict[str, dict[str, Any]] = {}
    for record in records:
        payload = record.payload
        if record.kind == "job.submitted":
            jobs[payload["key"]] = {
                "key": payload["key"],
                "tenant": payload["tenant"],
                "priority": payload["priority"],
                "job": payload["job"],
                "state": "queued",
                "submitted_tick": record.tick,
                "terminal_tick": None,
            }
        elif record.kind == "job.start":
            entry = jobs.get(payload["key"])
            if entry is not None and entry["state"] == "queued":
                entry["state"] = "running"
        elif record.kind == "job.result":
            entry = jobs.get(payload["key"])
            if entry is not None:
                entry["state"] = "done"
                entry["terminal_tick"] = record.tick
        elif record.kind == "job.error":
            entry = jobs.get(payload["key"])
            if entry is not None:
                entry["state"] = "failed"
                entry["terminal_tick"] = record.tick
                entry["error_kind"] = payload["error_kind"]
                entry["message"] = payload["message"]
    return {"schema": JOBS_SCHEMA, "jobs": list(jobs.values())}


def derive_views(
    records: Sequence[Record], out_dir: str
) -> dict[str, list[str]]:
    """Materialize every view under ``out_dir``; returns paths per view.

    Views with no contributing records write nothing (an attack log
    without service jobs derives no ``jobs.json``).  Record kinds no
    view reads (``bench.point`` / ``trend.point`` / ``checkpoint`` in
    logs written before those kinds were retired) derive nothing.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: dict[str, list[str]] = {}

    lines = ledger_lines(records)
    if lines:
        path = os.path.join(out_dir, "ledger.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
        written["ledger"] = [path]

    certificates = certificate_texts(records)
    if certificates:
        cert_dir = os.path.join(out_dir, "certificates")
        os.makedirs(cert_dir, exist_ok=True)
        paths = []
        for label, text in sorted(certificates.items()):
            path = os.path.join(cert_dir, f"{label}.cert.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths.append(path)
        written["certificates"] = paths

    manifest = jobs_manifest(records)
    if manifest["jobs"]:
        path = os.path.join(out_dir, "jobs.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written["jobs"] = [path]

    return written
