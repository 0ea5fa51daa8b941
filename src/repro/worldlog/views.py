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
  (schema ``repro.jobs/v1``), one entry per idempotent job key, as the
  replay fold (:class:`~repro.worldlog.replay.ReplayState`) moves it
  through its ``job.submitted`` / ``job.start`` / ``job.result`` /
  ``job.error`` records.  ``repro jobs --log`` renders the same
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

    The crash-mid-gather rule of the ledger view (the replay fold
    applies it by starting its ledger view over at every marker), so a
    resumed log's re-spliced events never double-count.
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
    """The derived ledger view as live events (``trace --format
    chrome``)."""
    from repro.obs.ledger import LedgerEvent

    return [
        LedgerEvent.from_payload(record.payload)
        for record in after_last_gather(records)
        if record.kind == "ledger.event"
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

    The ``jobs`` of :func:`~repro.worldlog.replay.replay_state`, in
    submission order: the accepted spec and its tenant / priority, the
    current state (``queued`` → ``running`` → ``done`` / ``failed``),
    the ticks of the acceptance and terminal records, and — for failed
    jobs — the structured error kind and message.  The full terminal
    payloads stay in the log; the manifest is the operator's index, not
    a second source of truth.
    """
    from repro.worldlog.replay import replay_state

    jobs = replay_state(records).jobs
    return {
        "schema": JOBS_SCHEMA,
        "jobs": [dict(entry) for entry in jobs.values()],
    }


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
