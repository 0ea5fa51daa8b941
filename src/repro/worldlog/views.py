"""Derived views: the published artifacts, rendered from a world log.

Nothing here is a second source of truth — a view is a pure function of
the record sequence, re-runnable at any time (``repro log derive``),
and pinned byte for byte by the golden fixtures under
``tests/worldlog/golden``:

* **ledger** — ``ledger.jsonl``: every ``ledger.event`` payload as one
  JSONL line, exactly the live ledger's
  :meth:`~repro.obs.ledger.LedgerEvent.to_json` lines: the ``events``
  of the replay fold (:class:`~repro.worldlog.replay.ReplayState`),
  which starts over at every ``gather.start`` marker, so a crash
  mid-gather (which would otherwise duplicate spliced events on
  resume) cannot corrupt the view.
* **certificates** — ``certificates/<label>.cert.json``: each
  ``cert.artifact``'s canonical JSON text, exactly the bytes
  ``Certificate.to_bytes`` ships.
* **jobs** — ``jobs.json``: the manifest of service and sweep jobs
  (schema ``repro.jobs/v1``), one entry per idempotent job key, as the
  replay fold (:class:`~repro.worldlog.replay.ReplayState`) moves it
  through its ``job.submitted`` / ``job.start`` / ``job.result`` /
  ``job.error`` records.  ``repro jobs --log`` renders the same
  manifest without materializing it, and the server's ``jobs`` RPC
  renders it from the fold it keeps live.

:func:`derive_views` folds its records once and renders both the ledger
and the jobs view from that one fold.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.worldlog.record import Record
from repro.worldlog.replay import ReplayState, replay_state

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.ledger import LedgerEvent


def ledger_lines(state: ReplayState) -> list[str]:
    """The fold's ledger view as JSONL lines (no trailing newlines)."""
    return [json.dumps(payload) for payload in state.events]


def ledger_events(records: Iterable[Record]) -> "list[LedgerEvent]":
    """The derived ledger view as live events (``trace --format
    chrome``): the events the fold built for its ledger tally."""
    return replay_state(records).ledger_events


def certificate_texts(records: Iterable[Record]) -> dict[str, str]:
    """Label → canonical certificate JSON text, in record order."""
    texts: dict[str, str] = {}
    for record in records:
        if record.kind == "cert.artifact":
            texts[record.payload["label"]] = record.payload["text"]
    return texts


def jobs_manifest(records: Iterable[Record]) -> dict[str, Any]:
    """The derived service job manifest (one entry per job key).

    :meth:`~repro.worldlog.replay.ReplayState.manifest`: the fold's
    ``jobs`` in submission order — the accepted spec and its tenant /
    priority, the current state (``queued`` → ``running`` → ``done`` /
    ``failed``), the ticks of the acceptance and terminal records, and
    — for failed jobs — the structured error kind and message.  The
    full terminal payloads stay in the log; the manifest is the
    operator's index, not a second source of truth.
    """
    return replay_state(records).manifest()


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
    state = replay_state(records)

    lines = ledger_lines(state)
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

    manifest = state.manifest()
    if manifest["jobs"]:
        path = os.path.join(out_dir, "jobs.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written["jobs"] = [path]

    return written
