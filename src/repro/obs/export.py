"""Export adapters: metrics and spans in formats other tools speak.

Two one-way bridges out of the repository's own observability model:

* **Prometheus text exposition** — a :class:`~repro.obs.report
  .LedgerFold` rendered as the ``# HELP`` / ``# TYPE`` line format every
  Prometheus-compatible scraper ingests (``repro metrics export
  --format prom``).  Counters become ``<prefix>_<name>_total``
  counters, gauges become gauges, span durations become summaries
  (``_count`` / ``_sum``) with their min/max as companion gauges.
* **Chrome trace-event JSON** — a ledger's span tree as the
  ``traceEvents`` array Perfetto and ``chrome://tracing`` open
  (``repro trace --format chrome``): ``B``/``E`` duration events per
  span, ``C`` counter samples, and ``M`` metadata naming each
  ``(worker, cell)`` stream as a process/thread pair.

Both adapters are pure functions of data the log already holds, so a
finished world log exports exactly what a live scrape would have shown.

>>> from repro.obs.ledger import LedgerEvent
>>> from repro.obs.report import LedgerFold
>>> hits = LedgerEvent("counter", "cache.hits", 0.0, 3)
>>> print(render_prometheus(LedgerFold.of([hits])).rstrip())
# HELP repro_cache_hits_total counter cache.hits
# TYPE repro_cache_hits_total counter
repro_cache_hits_total 3
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.ledger import LedgerEvent
from repro.obs.report import LedgerFold


def metric_name(name: str, prefix: str = "repro") -> str:
    """A Prometheus-legal metric name for one recorded metric.

    >>> metric_name("engine.round_seconds")
    'repro_engine_round_seconds'
    """
    sanitized = "".join(
        char if char.isalnum() or char == "_" else "_"
        for char in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"{prefix}_{sanitized}" if prefix else sanitized


def _format_value(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(fold: LedgerFold, prefix: str = "repro") -> str:
    """The full exposition document (trailing newline included).

    Names keep the fold's order: counters and gauges by first event,
    each ``span.<name>_seconds`` summary by its span's first close, so
    the exposition is deterministic.
    """
    lines: list[str] = []
    for name, total in fold.counters.items():
        metric = metric_name(name, prefix) + "_total"
        lines.append(f"# HELP {metric} counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(total)}")
    for name, value in fold.gauges.items():
        metric = metric_name(name, prefix)
        lines.append(f"# HELP {metric} gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for span, summary in fold.spans.items():
        name = f"span.{span}_seconds"
        metric = metric_name(name, prefix)
        lines.append(f"# HELP {metric} summary {name}")
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_format_value(summary.count)}")
        lines.append(f"{metric}_sum {_format_value(summary.seconds)}")
        for stat, value in (("min", summary.low), ("max", summary.high)):
            stat_metric = f"{metric}_{stat}"
            lines.append(f"# HELP {stat_metric} gauge {name} {stat}")
            lines.append(f"# TYPE {stat_metric} gauge")
            lines.append(f"{stat_metric} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def chrome_trace(
    events: Sequence[LedgerEvent],
) -> dict[str, Any]:
    """A ledger event stream as Chrome trace-event JSON.

    Spans become ``B``/``E`` duration events on one track per
    ``(worker, cell)`` stream — the worker is the *process*, the cell
    the *thread*, named via ``M`` metadata events so Perfetto labels
    the tracks.  ``counter`` events become ``C`` samples on the same
    track.  Timestamps are the ledger's monotonic seconds scaled to
    the format's microseconds; they are meaningful per process, which
    is exactly the trace-event contract.
    """
    trace_events: list[dict[str, Any]] = []
    threads: dict[tuple[int, str | None], int] = {}
    processes: set[int] = set()

    def track(event: LedgerEvent) -> tuple[int, int]:
        pid = event.worker_id
        if pid not in processes:
            processes.add(pid)
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"worker {pid}"},
                }
            )
        stream = (pid, event.cell_id)
        if stream not in threads:
            tid = sum(1 for key in threads if key[0] == pid) + 1
            threads[stream] = tid
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": event.cell_id or "main"},
                }
            )
        return pid, threads[stream]

    for event in events:
        if event.kind not in (
            "span-start",
            "span-end",
            "counter",
            "gauge",
        ):
            continue
        pid, tid = track(event)
        ts = event.ts * 1e6
        if event.kind == "span-start":
            trace_events.append(
                {
                    "name": event.name,
                    "ph": "B",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(event.attrs),
                }
            )
        elif event.kind == "span-end":
            trace_events.append(
                {
                    "name": event.name,
                    "ph": "E",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                }
            )
        elif (
            event.value is not None
            and isinstance(event.value, (int, float))
        ):
            trace_events.append(
                {
                    "name": event.name,
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "args": {event.name: event.value},
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
