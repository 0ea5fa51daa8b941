"""Human rendering of run ledgers.

:func:`render_trace` is the ``repro trace <ledger>`` timeline over the
:mod:`repro.obs.ledger` event stream: the span tree with accumulated
durations, the slowest simulated rounds, the per-round message-count
series, the cache hit rate and the observed messages-vs-``t²/32``
ratio (its minimum and maximum over the cells of a sweep), plus a
per-cell table for sweep ledgers with each cell's messages, floor and
ratio.  :func:`span_totals`, :func:`percentiles`,
:func:`cache_hit_rate` and :func:`bound_gauges` are the folds ``repro
log stats`` reuses; :func:`closed_spans` is the one span-pairing rule
the flat folds share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Iterable, Iterator, Sequence

from repro.obs.ledger import LedgerEvent


@dataclass
class _SpanNode:
    """One aggregated node of the span tree."""

    name: str
    seconds: float = 0.0
    count: int = 0
    children: dict[str, "_SpanNode"] = field(default_factory=dict)

    def child(self, name: str) -> "_SpanNode":
        if name not in self.children:
            self.children[name] = _SpanNode(name)
        return self.children[name]


def build_span_tree(events: Sequence[LedgerEvent]) -> _SpanNode:
    """Aggregate paired span events into one tree.

    Spans are paired per ``(worker_id, cell_id)`` stream (timestamps are
    only comparable within one stream); same-named spans at the same
    nesting depth accumulate duration and count across streams.
    """
    root = _SpanNode("")
    stacks: dict[tuple[int, str | None], list[tuple[_SpanNode, float]]] = {}
    for event in events:
        stream = (event.worker_id, event.cell_id)
        stack = stacks.setdefault(stream, [])
        if event.kind == "span-start":
            parent = stack[-1][0] if stack else root
            stack.append((parent.child(event.name), event.ts))
        elif event.kind == "span-end":
            while stack:
                node, started = stack.pop()
                if node.name == event.name:
                    node.seconds += event.ts - started
                    node.count += 1
                    break
    return root


def _render_tree(node: _SpanNode, depth: int, lines: list[str]) -> None:
    for child in node.children.values():
        suffix = f" ×{child.count}" if child.count > 1 else ""
        lines.append(
            f"{'  ' * depth}{child.name:<18} "
            f"{child.seconds * 1e3:9.2f} ms{suffix}"
        )
        _render_tree(child, depth + 1, lines)


def _round_events(
    events: Sequence[LedgerEvent],
) -> list[LedgerEvent]:
    return [
        event
        for event in events
        if event.kind == "counter" and event.name == "engine.round"
    ]


def _counter_total(events: Sequence[LedgerEvent], name: str) -> float:
    return sum(
        event.value or 0
        for event in events
        if event.kind == "counter" and event.name == name
    )


def _last_gauge(
    events: Sequence[LedgerEvent], name: str
) -> LedgerEvent | None:
    found = None
    for event in events:
        if event.kind == "gauge" and event.name == name:
            found = event
    return found


def closed_spans(
    events: Iterable[LedgerEvent],
) -> Iterator[tuple[str, float]]:
    """Every closed span as ``(name, seconds)``, in closing order.

    Spans pair per ``(worker_id, cell_id)`` stream, since timestamps
    only compare within one stream.  A ``span-end`` closes the nearest
    open span of its name in its stream (dropping any unclosed spans
    above it); one with no such start closes nothing.  The one pairing
    rule behind :func:`span_totals` and
    :func:`~repro.obs.export.metrics_snapshot`.

    >>> from repro.obs.ledger import LedgerEvent
    >>> def at(kind, name, ts, worker=1):
    ...     return LedgerEvent(kind, name, ts, None, "r", None, worker)
    >>> list(closed_spans([
    ...     at("span-start", "attack", 1.0),
    ...     at("span-start", "probe", 2.0),
    ...     at("span-end", "probe", 5.0),
    ...     at("span-end", "attack", 9.0, worker=2),
    ... ]))
    [('probe', 3.0)]
    """
    stacks: dict[tuple[int, str | None], list[LedgerEvent]] = {}
    for event in events:
        if event.kind == "span-start":
            stream = (event.worker_id, event.cell_id)
            stacks.setdefault(stream, []).append(event)
        elif event.kind == "span-end":
            stack = stacks.get((event.worker_id, event.cell_id), [])
            while stack:
                start = stack.pop()
                if start.name == event.name:
                    yield event.name, event.ts - start.ts
                    break


def span_totals(
    events: Sequence[LedgerEvent],
) -> dict[str, dict[str, float]]:
    """Flat accumulated span durations: name → ``{seconds, count}``.

    The flat companion to :func:`build_span_tree`: same-named spans
    accumulate regardless of nesting depth.  Shared by the trace
    renderer's consumers and ``repro log stats`` (certificate verify
    time is the ``witness-verify`` + ``certify`` rows).
    """
    totals: dict[str, dict[str, float]] = {}
    for name, seconds in closed_spans(events):
        entry = totals.setdefault(name, {"seconds": 0.0, "count": 0})
        entry["seconds"] += seconds
        entry["count"] += 1
    return dict(sorted(totals.items()))


def percentiles(
    values: Sequence[float],
    marks: Sequence[float] = (0.5, 0.9, 0.99),
) -> dict[str, float]:
    """Nearest-rank percentiles of ``values``: ``{"p50": ..., ...}``.

    Empty input yields an empty dict (a log with no per-cell data has
    no percentiles, not a zero).  Shared by ``repro log stats`` and any
    renderer that distills a metric series into a summary row.
    """
    if not values:
        return {}
    ordered = sorted(values)
    result: dict[str, float] = {}
    for mark in marks:
        rank = max(0, min(len(ordered) - 1, ceil(mark * len(ordered)) - 1))
        label = f"p{mark * 100:g}"
        result[label] = ordered[rank]
    result["max"] = ordered[-1]
    return result


def cache_hit_rate(events: Sequence[LedgerEvent]) -> float | None:
    """``(hits + alias_hits) / lookups`` over the whole ledger."""
    hits = _counter_total(events, "cache.hits")
    alias = _counter_total(events, "cache.alias_hits")
    misses = _counter_total(events, "cache.misses")
    lookups = hits + alias + misses
    if not lookups:
        return None
    return (hits + alias) / lookups


def render_trace(
    events: Sequence[LedgerEvent], slowest: int = 5
) -> str:
    """The human timeline of one persisted run ledger."""
    from repro.analysis.tables import render_table

    lines: list[str] = []
    run_ids = sorted({event.run_id for event in events})
    workers = sorted({event.worker_id for event in events})
    cells = sorted(
        {
            event.cell_id
            for event in events
            if event.cell_id is not None
        }
    )
    lines.append(
        f"run {', '.join(run_ids) or '-'}: {len(events)} events, "
        f"{len(workers)} worker(s), {len(cells)} cell(s)"
    )

    tree = build_span_tree(events)
    if tree.children:
        lines.append("")
        lines.append("phase tree (accumulated wall time):")
        _render_tree(tree, 1, lines)

    rounds = _round_events(events)
    if rounds:
        lines.append("")
        per_round: dict[int, int] = {}
        for event in rounds:
            index = int(event.attr("round", 0))
            per_round[index] = per_round.get(index, 0) + int(
                event.value or 0
            )
        lines.append(
            f"rounds simulated: {len(rounds)}; correct-sender "
            "messages per round index:"
        )
        lines.append(
            render_table(
                ("round", "messages"),
                [(index, per_round[index]) for index in sorted(per_round)],
            )
        )
        ranked = sorted(
            rounds,
            key=lambda event: event.attr("seconds", 0.0),
            reverse=True,
        )[:slowest]
        lines.append(f"slowest {len(ranked)} rounds:")
        lines.append(
            render_table(
                ("cell", "run", "round", "wall us", "messages"),
                [
                    (
                        event.cell_id or "-",
                        event.attr("run", "-"),
                        event.attr("round", "-"),
                        f"{event.attr('seconds', 0.0) * 1e6:.1f}",
                        event.value,
                    )
                    for event in ranked
                ],
            )
        )

    rate = cache_hit_rate(events)
    if rate is not None:
        lines.append(
            f"cache hit rate: {rate * 100:.1f}% "
            f"({_counter_total(events, 'cache.hits'):.0f} hits, "
            f"{_counter_total(events, 'cache.alias_hits'):.0f} alias, "
            f"{_counter_total(events, 'cache.misses'):.0f} misses)"
        )

    by_cell: dict[str, list[LedgerEvent]] = {cell: [] for cell in cells}
    for event in events:
        if event.cell_id is not None:
            by_cell[event.cell_id].append(event)
    bounds = {cell: bound_gauges(by_cell[cell]) for cell in cells}
    measured = [(cell, bound) for cell, bound in bounds.items() if bound]
    if len(measured) > 1:
        # One ratio per cell: a sweep's cells differ in t, so no single
        # gauge speaks for the log.
        low = min(measured, key=lambda item: item[1][0])
        high = max(measured, key=lambda item: item[1][0])
        lines.append(
            f"messages / (t²/32) over {len(measured)} cells: "
            f"min {_render_bound(*low)}, max {_render_bound(*high)}"
        )
    else:
        bound = bound_gauges(events)
        if bound is not None:
            lines.append(f"messages / (t²/32): {_render_bound(None, bound)}")

    if cells:
        lines.append("")
        lines.append("per-cell summary:")
        rows = []
        for cell in cells:
            cell_events = by_cell[cell]
            wall = _last_gauge(cell_events, "cell.wall_seconds")
            errors = _counter_total(cell_events, "cell.error")
            artifacts = sum(
                1
                for event in cell_events
                if event.kind == "artifact"
            )
            ratio, observed, floor = bounds[cell] or (None, None, None)
            rows.append(
                (
                    cell,
                    f"{wall.value * 1e3:.1f}" if wall else "-",
                    len(cell_events),
                    artifacts,
                    "-" if observed is None else f"{observed:.0f}",
                    "-" if floor is None else f"{floor:.1f}",
                    "-" if ratio is None else f"{ratio:.3f}",
                    "ERROR" if errors else "ok",
                )
            )
        lines.append(
            render_table(
                (
                    "cell",
                    "wall ms",
                    "events",
                    "artifacts",
                    "messages",
                    "floor",
                    "messages/floor",
                    "status",
                ),
                rows,
            )
        )
    return "\n".join(lines)


def bound_gauges(
    events: Sequence[LedgerEvent],
) -> tuple[float, float | None, float | None] | None:
    """``(ratio, observed, floor)`` from the last ``bound.*`` gauges, or
    ``None`` without a ``bound.vs_floor`` gauge."""
    ratio = _last_gauge(events, "bound.vs_floor")
    if ratio is None:
        return None
    observed = _last_gauge(events, "bound.observed")
    floor = _last_gauge(events, "bound.floor")
    return (
        ratio.value,
        None if observed is None else observed.value,
        None if floor is None else floor.value,
    )


def _render_bound(
    cell: str | None,
    bound: tuple[float, float | None, float | None],
) -> str:
    """``ratio (cell: observed messages vs t²/32 = floor)``."""
    ratio, observed, floor = bound
    detail = []
    if cell is not None:
        detail.append(cell)
    if observed is not None and floor is not None:
        detail.append(f"{observed:.0f} messages vs t²/32 = {floor:.1f}")
    return f"{ratio:.3f}" + (f" ({': '.join(detail)})" if detail else "")
