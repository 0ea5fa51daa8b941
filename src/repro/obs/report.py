"""The one fold of ledger events, and its human rendering.

:class:`LedgerFold` reads a recorded event stream one event at a time
and keeps everything the log readers print: summed counters, last
gauges, the ``engine.round`` rows, the same tallies per sweep cell, and
the spans — paired once, by one stack per ``(worker_id, cell_id)``
stream, into an aggregated phase tree and flat per-name totals.  ``repro
trace`` (:func:`render_trace`), ``repro metrics export``
(:func:`~repro.obs.export.render_prometheus`), ``repro log stats`` and
the replay cursor (:mod:`repro.worldlog.replay`) all render one fold;
none of them rescans the events.

:func:`render_trace` is the ``repro trace`` timeline: the span tree with
accumulated durations, the slowest simulated rounds, the per-round
message-count series, the cache hit rate and the observed
messages-vs-``t²/32`` ratio (its minimum and maximum over the cells of a
sweep), plus a per-cell table for sweep ledgers with each cell's
messages, floor and ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil
from typing import Iterable, NamedTuple, Sequence

from repro.obs.ledger import LedgerEvent

Bound = tuple[float, float | None, float | None]
"""``(ratio, observed, floor)`` read off a scope's ``bound.*`` gauges."""


def counted(event: LedgerEvent) -> float:
    """What one ``counter`` event adds: its value, or 1 without one
    (the default of :meth:`~repro.obs.tracer.Tracer.counter`)."""
    return 1 if event.value is None else event.value


class SpanTotal(NamedTuple):
    """Every closed span of one name: how many, how long in all, and
    the shortest and longest."""

    count: int
    seconds: float
    low: float
    high: float

    def add(self, seconds: float) -> "SpanTotal":
        return SpanTotal(
            self.count + 1,
            self.seconds + seconds,
            min(self.low, seconds),
            max(self.high, seconds),
        )


@dataclass
class Tally:
    """Counters, gauges and rounds of one scope: a whole log or a cell.

    A ``counter`` adds :func:`counted`, a ``gauge`` keeps its last value
    (one without a value is skipped), and an ``engine.round`` counter is
    also kept as a row.  ``vs_floor`` is the latest ratio to the
    ``t²/32`` floor, from a round's attributes or a ``bound.vs_floor``
    gauge, whichever came last.
    """

    events: int = 0
    artifacts: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    rounds: list[LedgerEvent] = field(default_factory=list)
    vs_floor: float | None = None

    def add(self, event: LedgerEvent) -> None:
        self.events += 1
        kind, name = event.kind, event.name
        if kind == "counter":
            self.counters[name] = self.counters.get(name, 0) + counted(event)
            if name == "engine.round":
                self.rounds.append(event)
                self.vs_floor = event.attr("vs_floor", self.vs_floor)
        elif kind == "gauge" and event.value is not None:
            self.gauges[name] = event.value
            if name == "bound.vs_floor":
                self.vs_floor = event.value
        elif kind == "artifact":
            self.artifacts += 1

    def clone(self) -> "Tally":
        return replace(
            self,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            rounds=list(self.rounds),
        )

    @property
    def messages(self) -> float:
        """Correct-sender messages over every traced round."""
        return float(self.counters.get("engine.round", 0))

    def hit_rate(self) -> float | None:
        """``(hits + alias_hits) / lookups``, or ``None`` without lookups."""
        hits = self.counters.get("cache.hits", 0)
        alias = self.counters.get("cache.alias_hits", 0)
        lookups = hits + alias + self.counters.get("cache.misses", 0)
        return (hits + alias) / lookups if lookups else None

    def bound(self) -> Bound | None:
        """The last ``bound.*`` gauges, or ``None`` without a
        ``bound.vs_floor`` gauge."""
        if "bound.vs_floor" not in self.gauges:
            return None
        return (
            self.gauges["bound.vs_floor"],
            self.gauges.get("bound.observed"),
            self.gauges.get("bound.floor"),
        )


Stream = tuple[int, str | None]
Path = tuple[str, ...]


@dataclass
class LedgerFold(Tally):
    """Every reader's view of one event stream, built one event at a time.

    On top of the whole-stream :class:`Tally` it keeps one tally per
    cell, the run and worker ids seen, and the spans.  Spans pair per
    ``(worker_id, cell_id)`` stream, since timestamps only compare
    within one stream.  A ``span-start`` opens a node of ``tree`` under
    the stream's innermost open span, so an unclosed span still shows;
    a ``span-end`` closes the nearest open span of its name in its
    stream, dropping any unclosed spans above it, and one with no such
    start closes nothing.  A close adds its duration to its tree node
    and to ``spans`` (flat per-name totals, in first-close order).

    >>> def at(kind, name, ts, worker=1):
    ...     return LedgerEvent(kind, name, ts, None, "r", None, worker)
    >>> fold = LedgerFold.of([
    ...     at("span-start", "attack", 1.0),
    ...     at("span-start", "probe", 2.0),
    ...     at("span-end", "probe", 5.0),
    ...     at("span-end", "attack", 9.0, worker=2),
    ... ])
    >>> fold.tree
    {('attack',): (0.0, 0), ('attack', 'probe'): (3.0, 1)}
    >>> fold.open_spans
    [(1, None, ['attack'])]
    """

    run_ids: set[str] = field(default_factory=set)
    workers: set[int] = field(default_factory=set)
    cells: dict[str, Tally] = field(default_factory=dict)
    tree: dict[Path, tuple[float, int]] = field(default_factory=dict)
    spans: dict[str, SpanTotal] = field(default_factory=dict)
    stacks: dict[Stream, list[tuple[Path, float]]] = field(
        default_factory=dict
    )

    @classmethod
    def of(cls, events: Iterable[LedgerEvent]) -> "LedgerFold":
        fold = cls()
        for event in events:
            fold.add(event)
        return fold

    def add(self, event: LedgerEvent) -> None:
        super().add(event)
        self.run_ids.add(event.run_id)
        self.workers.add(event.worker_id)
        if event.cell_id is not None:
            if event.cell_id not in self.cells:
                self.cells[event.cell_id] = Tally()
            self.cells[event.cell_id].add(event)
        if event.kind == "span-start":
            stack = self.stacks.setdefault(
                (event.worker_id, event.cell_id), []
            )
            path = (stack[-1][0] if stack else ()) + (event.name,)
            self.tree.setdefault(path, (0.0, 0))
            stack.append((path, event.ts))
        elif event.kind == "span-end":
            stack = self.stacks.get((event.worker_id, event.cell_id), [])
            while stack:
                path, started = stack.pop()
                if path[-1] == event.name:
                    self._close(path, event.ts - started)
                    break

    def _close(self, path: Path, seconds: float) -> None:
        total, count = self.tree[path]
        self.tree[path] = (total + seconds, count + 1)
        name = path[-1]
        first = SpanTotal(0, 0.0, seconds, seconds)
        self.spans[name] = self.spans.get(name, first).add(seconds)

    def clone(self) -> "LedgerFold":
        copy = super().clone()
        copy.run_ids = set(self.run_ids)
        copy.workers = set(self.workers)
        copy.cells = {cell: tally.clone() for cell, tally in self.cells.items()}
        copy.tree = dict(self.tree)
        copy.spans = dict(self.spans)
        copy.stacks = {
            stream: list(stack) for stream, stack in self.stacks.items()
        }
        return copy

    @property
    def open_spans(self) -> list[tuple[int, str | None, list[str]]]:
        """Per-stream open span names: ``(worker, cell, names)``."""
        return [
            (worker, cell, [path[-1] for path, _ in stack])
            for (worker, cell), stack in sorted(
                self.stacks.items(),
                key=lambda item: (item[0][0], item[0][1] or ""),
            )
            if stack
        ]

    @property
    def wall_seconds(self) -> float:
        """The accumulated time of the outermost spans."""
        return sum(
            seconds for path, (seconds, _) in self.tree.items()
            if len(path) == 1
        )


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


def _render_tree(tree: dict[Path, tuple[float, int]], lines: list[str]) -> None:
    children: dict[Path, list[Path]] = {}
    for path in tree:
        children.setdefault(path[:-1], []).append(path)

    def walk(parent: Path) -> None:
        for path in children.get(parent, ()):
            seconds, count = tree[path]
            suffix = f" ×{count}" if count > 1 else ""
            lines.append(
                f"{'  ' * len(path)}{path[-1]:<18} "
                f"{seconds * 1e3:9.2f} ms{suffix}"
            )
            walk(path)

    walk(())


def render_trace(fold: LedgerFold, slowest: int = 5) -> str:
    """The human timeline of one recorded event stream."""
    from repro.analysis.tables import render_table

    lines: list[str] = []
    cells = sorted(fold.cells)
    lines.append(
        f"run {', '.join(sorted(fold.run_ids)) or '-'}: "
        f"{fold.events} events, "
        f"{len(fold.workers)} worker(s), {len(cells)} cell(s)"
    )

    if fold.tree:
        lines.append("")
        lines.append("phase tree (accumulated wall time):")
        _render_tree(fold.tree, lines)

    rounds = fold.rounds
    if rounds:
        lines.append("")
        per_round: dict[int, int] = {}
        for event in rounds:
            index = int(event.attr("round", 0))
            per_round[index] = per_round.get(index, 0) + int(counted(event))
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

    rate = fold.hit_rate()
    if rate is not None:
        counters = fold.counters
        lines.append(
            f"cache hit rate: {rate * 100:.1f}% "
            f"({counters.get('cache.hits', 0):.0f} hits, "
            f"{counters.get('cache.alias_hits', 0):.0f} alias, "
            f"{counters.get('cache.misses', 0):.0f} misses)"
        )

    bounds = {cell: fold.cells[cell].bound() for cell in cells}
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
        bound = fold.bound()
        if bound is not None:
            lines.append(f"messages / (t²/32): {_render_bound(None, bound)}")

    if cells:
        lines.append("")
        lines.append("per-cell summary:")
        rows = []
        for cell in cells:
            tally = fold.cells[cell]
            wall = tally.gauges.get("cell.wall_seconds")
            ratio, observed, floor = bounds[cell] or (None, None, None)
            rows.append(
                (
                    cell,
                    "-" if wall is None else f"{wall * 1e3:.1f}",
                    tally.events,
                    tally.artifacts,
                    "-" if observed is None else f"{observed:.0f}",
                    "-" if floor is None else f"{floor:.1f}",
                    "-" if ratio is None else f"{ratio:.3f}",
                    "ERROR" if tally.counters.get("cell.error") else "ok",
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


def _render_bound(cell: str | None, bound: Bound) -> str:
    """``ratio (cell: observed messages vs t²/32 = floor)``."""
    ratio, observed, floor = bound
    detail = []
    if cell is not None:
        detail.append(cell)
    if observed is not None and floor is not None:
        detail.append(f"{observed:.0f} messages vs t²/32 = {floor:.1f}")
    return f"{ratio:.3f}" + (f" ({': '.join(detail)})" if detail else "")
