"""Regenerate the golden world log and its expected derived views.

The committed fixture pins the *record → view* contract: CI (the
``worldlog-replay`` job) and ``tests/worldlog/test_golden.py`` re-derive
all three views from ``run.worldlog`` and byte-diff them against
``expected/``.  The ledger and certificate artifacts are written here by
the **legacy writers themselves** (``RunLedger.write``,
``Certificate.to_bytes``), so the diff proves the views reproduce the
writers' bytes — not merely their own earlier output.

Regenerate (only when the record schema or a writer legitimately
changes) from the repository root::

    PYTHONPATH=src python tests/worldlog/golden/generate.py

Both the log and ``expected/`` are rewritten together; a regeneration
that changes bytes should be a reviewed, deliberate event.
"""

import itertools
import json
import os

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.subquadratic import silent_cheater_spec
from repro.worldlog import WorldLog, read_worldlog
from repro.worldlog.views import checkpoint_manifest

HERE = os.path.dirname(os.path.abspath(__file__))
LOG_PATH = os.path.join(HERE, "run.worldlog")
EXPECTED = os.path.join(HERE, "expected")


def main() -> None:
    ticks = itertools.count()

    def clock() -> float:
        # A deterministic ledger clock: only deltas within a run are
        # meaningful, so a plain counter keeps the fixture stable.
        return float(next(ticks))

    worldlog = WorldLog.create(LOG_PATH, run_id="golden")
    ledger = RunLedger(
        run_id="golden",
        worker_id=1,
        clock=clock,
        sink=worldlog.record_event,
    )
    outcome = attack_weak_consensus(
        silent_cheater_spec(8, 4),
        certify=True,
        tracer=LedgerTracer(ledger),
        worldlog=worldlog,
    )
    worldlog.close()

    os.makedirs(EXPECTED, exist_ok=True)
    # ledger: the current writer's own bytes for this very run.
    ledger.write(os.path.join(EXPECTED, "ledger.jsonl"))
    # certificate: the canonical bytes the legacy artifact ships.
    cert_dir = os.path.join(EXPECTED, "certificates")
    os.makedirs(cert_dir, exist_ok=True)
    label = f"{outcome.protocol}-n8-t4"
    with open(os.path.join(cert_dir, f"{label}.cert.json"), "wb") as out:
        out.write(outcome.certificate.to_bytes())
    # checkpoints: no legacy writer exists — this view is pinned
    # against its own generation-time rendering (pure regression).
    with open(
        os.path.join(EXPECTED, "checkpoints.json"), "w", encoding="utf-8"
    ) as out:
        json.dump(
            checkpoint_manifest(read_worldlog(LOG_PATH)),
            out,
            indent=2,
            sort_keys=True,
        )
        out.write("\n")
    print(f"wrote {LOG_PATH} and {EXPECTED}/")


if __name__ == "__main__":
    main()
