"""Observability: the unified run ledger, tracer, reports and exports.

The layer every pipeline stage emits into and every report reads from:

* :mod:`repro.obs.ledger` — the append-only in-memory event log with
  the ``run_id`` / ``cell_id`` / ``worker_id`` correlation triple and
  the cross-process splice protocol (persisted through the world log);
* :mod:`repro.obs.tracer` — span tracing with a zero-overhead no-op
  default (:data:`NULL_TRACER`) and the per-round engine observer;
* :mod:`repro.obs.report` — the one fold of recorded events every log
  reader renders (spans paired, counters summed, last gauges, rounds,
  per-cell tallies) and the ``repro trace`` timeline;
* :mod:`repro.obs.export` — Prometheus text exposition of that fold and
  Chrome trace-event JSON adapters.

There is no in-memory aggregate beside the log: every total is read off
one fold of the recorded events.

Telemetry is wall-clock data: it never participates in outcome
equality, and the parallel sweep backends are required to agree only on
the *event order* (``kind``/``name``/``cell_id`` sequence), never on
timestamps or worker ids.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".export": (
            "chrome_trace", "render_prometheus",
        ),
        ".ledger": (
            "EVENT_KINDS", "LedgerEvent", "RunLedger", "cell_label",
            "new_run_id", "order_signature",
        ),
        ".tracer": (
            "LedgerTracer", "NULL_TRACER", "RoundTraceObserver", "Tracer",
        ),
    },
)
