"""How the golden world log and its expected derived views were made.

The committed fixture pins the *record → view* contract: CI (the
``worldlog-replay`` job) and ``tests/worldlog/test_golden.py`` re-derive
the views from ``run.worldlog`` and byte-diff them against
``expected/``.  The expected artifacts come from the run itself, not
from the views: ``ledger.jsonl`` is the live ledger's
``LedgerEvent.to_json`` lines and the certificate is
``Certificate.to_bytes``, so the diff proves the views reproduce the
run's bytes — not merely their own earlier output.

**Do not regenerate the committed fixture.**  It predates two changes
it now pins against:

* its certificate is the published **v1** layout, which
  ``tests/certify/test_continuity.py`` and CI's ``verify-cert`` step
  read; this script would write a v2 certificate;
* its log holds two records of the retired ``checkpoint`` kind, the
  fixture showing that a retired kind still reads and derives nothing;
  today's driver no longer writes them.

A regenerated ``ledger.jsonl`` would also differ (the driver emits more
counters than when the fixture was made).  The script documents how the
fixture was produced; run it only against a scratch copy::

    PYTHONPATH=src python tests/worldlog/golden/generate.py
"""

import itertools
import os

from repro.lowerbound.driver import attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import LedgerTracer
from repro.protocols.subquadratic import silent_cheater_spec
from repro.worldlog import WorldLog

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
    # ledger: the live ledger's own event lines for this very run.
    with open(
        os.path.join(EXPECTED, "ledger.jsonl"), "w", encoding="utf-8"
    ) as out:
        for event in ledger.events:
            out.write(event.to_json() + "\n")
    # certificate: the canonical bytes the artifact ships.
    cert_dir = os.path.join(EXPECTED, "certificates")
    os.makedirs(cert_dir, exist_ok=True)
    label = f"{outcome.protocol}-n8-t4"
    with open(os.path.join(cert_dir, f"{label}.cert.json"), "wb") as out:
        out.write(outcome.certificate.to_bytes())
    print(f"wrote {LOG_PATH} and {EXPECTED}/")


if __name__ == "__main__":
    main()
