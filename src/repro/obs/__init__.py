"""Observability: the unified run ledger, tracer, metrics and reports.

The layer every pipeline stage emits into and every report reads from:

* :mod:`repro.obs.ledger` — the append-only JSONL event log with the
  ``run_id`` / ``cell_id`` / ``worker_id`` correlation triple and the
  cross-process splice protocol;
* :mod:`repro.obs.tracer` — span tracing with a zero-overhead no-op
  default (:data:`NULL_TRACER`) and the per-round engine observer;
* :mod:`repro.obs.metrics` — the associative registry of named
  counters, gauges and histograms;
* :mod:`repro.obs.report` — the ``repro trace`` timeline;
* :mod:`repro.obs.telemetry` — the sampled telemetry bus folding live
  metrics/progress/round accounting into observability-only
  ``telemetry.snapshot`` world-log records;
* :mod:`repro.obs.export` — Prometheus text exposition and Chrome
  trace-event JSON adapters.

Telemetry is wall-clock data: it never participates in outcome
equality, and the parallel sweep backends are required to agree only on
the *event order* (``kind``/``name``/``cell_id`` sequence), never on
timestamps or worker ids.
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    registry_from_events,
    render_prometheus,
)
from repro.obs.ledger import (
    EVENT_KINDS,
    LedgerEvent,
    RunLedger,
    cell_label,
    new_run_id,
    order_signature,
    read_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryBus,
    parse_interval,
)
from repro.obs.tracer import (
    NULL_TRACER,
    LedgerTracer,
    RoundTraceObserver,
    Tracer,
)

__all__ = [
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "LedgerEvent",
    "LedgerTracer",
    "MetricsRegistry",
    "NULL_TRACER",
    "RoundTraceObserver",
    "RunLedger",
    "TELEMETRY_SCHEMA",
    "TelemetryBus",
    "Tracer",
    "cell_label",
    "chrome_trace",
    "new_run_id",
    "order_signature",
    "parse_interval",
    "read_events",
    "registry_from_events",
    "render_prometheus",
]
