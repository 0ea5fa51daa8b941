"""One-shot import of legacy artifacts into a world log.

``repro log import`` keeps the object engine's existing artifacts
readable across the storage transition: each input file is sniffed for
which of the two legacy families it is — run-ledger JSONL or
attack-certificate JSON — and converted to the equivalent records.
Deriving the matching view from the imported log reproduces the input
byte-for-byte (the payloads are carried verbatim), so importing is
lossless and reversible.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.artifact import artifact_error, load_artifact_lines
from repro.worldlog.store import WorldLog


def sniff_family(path: str) -> str:
    """Which legacy family ``path`` holds.

    Returns ``"ledger"`` or ``"certificate"``.

    Raises:
        ArtifactError: when the file matches no known family (the
            uniform ``<path>:1: not a legacy artifact`` diagnostic).
        OSError: when it cannot be read.
    """
    from repro.certify.format import CERTIFICATE_FORMAT
    from repro.obs.ledger import EVENT_KINDS

    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    first_line = stripped.split("\n", 1)[0] if stripped else ""
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict):
        if (
            first.get("kind") in EVENT_KINDS
            and isinstance(first.get("name"), str)
            and "ts" in first
        ):
            return "ledger"
    try:
        document = json.loads(stripped)
    except json.JSONDecodeError:
        document = None
    if (
        isinstance(document, dict)
        and document.get("format") == CERTIFICATE_FORMAT
    ):
        return "certificate"
    raise artifact_error(
        path,
        "legacy artifact",
        ValueError("expected a run ledger or an attack certificate"),
        line=1,
    )


def _import_ledger(log: WorldLog, path: str) -> int:
    def parse(line: str) -> dict[str, Any]:
        record = json.loads(line)
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError("line is not a ledger event object")
        return record

    events = load_artifact_lines(path, "ledger event", parse)
    for event in events:
        log.append(
            "ledger.event",
            payload=event,
            cell_id=event.get("cell_id"),
            worker_id=event.get("worker_id", 0),
        )
    return len(events)


def _import_certificate(log: WorldLog, path: str) -> int:
    from repro.certify.format import read_certificate

    certificate = read_certificate(path)
    label = os.path.basename(path)
    if label.endswith(".cert.json"):
        label = label[: -len(".cert.json")]
    else:
        label = (
            f"{certificate.protocol}-n{certificate.n}"
            f"-t{certificate.t}"
        )
    log.append(
        "cert.artifact",
        payload={"label": label, "text": certificate.dumps()},
    )
    return 1


_IMPORTERS = {
    "ledger": _import_ledger,
    "certificate": _import_certificate,
}


def import_legacy(
    paths: list[str], out_path: str
) -> dict[str, int]:
    """Convert legacy artifact files into one fresh world log.

    Returns imported-record counts per family (only families that
    contributed appear).

    Raises:
        ArtifactError: when an input matches no known family or is
            malformed (CLI exit 2; nothing is partially written — the
            sniff pass runs before the log is created).
    """
    families = [(path, sniff_family(path)) for path in paths]
    counts: dict[str, int] = {}
    with WorldLog.create(out_path) as log:
        for path, family in families:
            counts[family] = counts.get(family, 0) + _IMPORTERS[
                family
            ](log, path)
    return counts
