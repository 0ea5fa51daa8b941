"""The metrics registry: named counters, gauges and histograms.

A :class:`MetricsRegistry` is the process-local aggregation point the
tracing layer streams into: the round observer feeds it per-round
message counts, round wall times and the running messages-vs-``t²/32``
ratio; the driver folds in its :class:`ExecutionCache` counters at the
end of a pipeline (:meth:`MetricsRegistry.absorb_cache`).  Registries
are picklable and :meth:`MetricsRegistry.merge` is **associative** with
the empty registry as identity, so per-worker registries fold into one
sweep aggregate in any grouping — the same counters-only contract
``ExecutionCache.merge_stats`` established for cache accounting.

Worked example::

    >>> registry = MetricsRegistry()
    >>> registry.counter("cache.hits").add(3)
    >>> registry.counter("cache.hits").add(2)
    >>> registry.counter("cache.hits").total
    5
    >>> registry.gauge("bound.vs_floor").set(1.25)
    >>> registry.histogram("round.seconds").record(0.5)
    >>> registry.histogram("round.seconds").record(1.5)
    >>> registry.histogram("round.seconds").mean
    1.0

Merging sums counters and histograms and keeps the most recently
updated gauge::

    >>> other = MetricsRegistry()
    >>> other.counter("cache.hits").add(10)
    >>> other.gauge("bound.vs_floor").set(2.0)
    >>> merged = registry.merge(other)
    >>> merged.counter("cache.hits").total
    15
    >>> merged.gauge("bound.vs_floor").value
    2.0
    >>> empty = MetricsRegistry()
    >>> empty.merge(registry).snapshot() == registry.snapshot()
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.tracer import Tracer


@dataclass
class Counter:
    """A monotone occurrence count."""

    name: str
    total: float = 0

    def add(self, value: float = 1) -> None:
        """Increment by ``value`` (non-negative)."""
        self.total += value

    def merged(self, other: "Counter") -> "Counter":
        """The element-wise sum."""
        return Counter(name=self.name, total=self.total + other.total)


@dataclass
class Gauge:
    """A last-value-wins sampled measurement."""

    name: str
    value: float | None = None
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the latest sample."""
        self.value = value
        self.updates += 1

    def merged(self, other: "Gauge") -> "Gauge":
        """The later-updated value wins (right operand on updates)."""
        value = other.value if other.updates else self.value
        return Gauge(
            name=self.name,
            value=value,
            updates=self.updates + other.updates,
        )


@dataclass
class Histogram:
    """A streaming summary: count, total, min, max (hence mean)."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def record(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """The mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merged(self, other: "Histogram") -> "Histogram":
        """The summary of the union of both observation streams."""
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return Histogram(
            name=self.name,
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
        )


@dataclass
class MetricsRegistry:
    """A named, mergeable, picklable collection of metrics.

    Instruments are created on first access and keep insertion order,
    so emission and rendering are deterministic.
    """

    _counters: dict[str, Counter] = field(default_factory=dict)
    _gauges: dict[str, Gauge] = field(default_factory=dict)
    _histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def absorb_cache(self, stats: Any) -> None:
        """Fold execution-cache counters into ``cache.*`` metrics.

        ``stats`` is anything exposing integer ``hits`` /
        ``alias_hits`` / ``misses`` attributes — a live
        :class:`~repro.lowerbound.driver.ExecutionCache` or the
        picklable :class:`~repro.parallel.jobs.CacheStats` counters a
        worker ships home.
        """
        self.counter("cache.hits").add(stats.hits)
        self.counter("cache.alias_hits").add(stats.alias_hits)
        self.counter("cache.misses").add(stats.misses)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """The associative fold of two registries (new registry)."""
        merged = MetricsRegistry()
        for name, counter in self._counters.items():
            merged._counters[name] = Counter(name, counter.total)
        for name, counter in other._counters.items():
            if name in merged._counters:
                merged._counters[name] = merged._counters[name].merged(
                    counter
                )
            else:
                merged._counters[name] = Counter(name, counter.total)
        for name, gauge in self._gauges.items():
            merged._gauges[name] = Gauge(name, gauge.value, gauge.updates)
        for name, gauge in other._gauges.items():
            if name in merged._gauges:
                merged._gauges[name] = merged._gauges[name].merged(gauge)
            else:
                merged._gauges[name] = Gauge(
                    name, gauge.value, gauge.updates
                )
        for name, histogram in self._histograms.items():
            merged._histograms[name] = Histogram(
                name,
                histogram.count,
                histogram.total,
                histogram.min,
                histogram.max,
            )
        for name, histogram in other._histograms.items():
            if name in merged._histograms:
                merged._histograms[name] = merged._histograms[
                    name
                ].merged(histogram)
            else:
                merged._histograms[name] = Histogram(
                    name,
                    histogram.count,
                    histogram.total,
                    histogram.min,
                    histogram.max,
                )
        return merged

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable view of every registered instrument."""
        return {
            "counters": {
                name: counter.total
                for name, counter in self._counters.items()
            },
            "gauges": {
                name: gauge.value
                for name, gauge in self._gauges.items()
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "total": histogram.total,
                    "min": histogram.min,
                    "max": histogram.max,
                    "mean": histogram.mean,
                }
                for name, histogram in self._histograms.items()
            },
        }

    def emit(self, tracer: "Tracer") -> None:
        """Publish every instrument as typed ledger events.

        Counters become ``counter`` events, gauges ``gauge`` events, and
        each histogram one ``gauge`` event carrying its mean with the
        full summary in the attributes — all in registration order, so
        the emitted sequence is deterministic.
        """
        for name, counter in self._counters.items():
            tracer.counter(name, value=counter.total)
        for name, gauge in self._gauges.items():
            if gauge.value is not None:
                tracer.gauge(name, value=gauge.value)
        for name, histogram in self._histograms.items():
            tracer.gauge(
                name,
                value=histogram.mean,
                count=histogram.count,
                total=histogram.total,
                min=histogram.min,
                max=histogram.max,
            )
