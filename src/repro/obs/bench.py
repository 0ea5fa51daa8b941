"""The benchmark observatory: statistical timing with a persisted trajectory.

The eleven ``benchmarks/bench_*.py`` modules define the *kernels* — the
experiment regenerations and simulator-core loops whose cost this
repository cares about.  Under pytest they run through pytest-benchmark
and emit the text reports EXPERIMENTS.md collects; this module gives the
same kernels a second, pytest-free life as a *measured subsystem*:

* :class:`BenchRunner` executes a kernel with warmup plus ``N`` timed
  repetitions and reduces the samples to :class:`BenchStats` —
  min/median/IQR with one-sided (upper-fence) outlier rejection and a
  relative **noise estimate** (``IQR / median``) that downstream
  comparisons gate on;
* every run also captures a :mod:`tracemalloc` peak and the sim-engine
  object-materialization deltas
  (:func:`repro.sim.engine.object_counts`), measured in a dedicated
  non-timed pass so memory instrumentation never pollutes the timings;
* every point is stamped with an **environment fingerprint** (git SHA,
  python version, platform, CPU count) so a trajectory spanning machines
  or commits stays interpretable;
* points append to ``BENCH_<suite>.json`` — a schema-versioned
  (:data:`BENCH_SCHEMA`) JSON document per suite — and
  :func:`compare_points` applies the noise-aware regression gate: a
  kernel is flagged only when its median delta exceeds
  ``max(threshold, 3 × measured noise)``.

Kernels register themselves via :func:`register` (or the
:func:`benchmark_kernel` decorator) at the bottom of each benchmark module;
:func:`load_benchmark_modules` imports ``bench_*.py`` files from a
directory so ``repro bench run`` works from a plain checkout, outside
pytest.

Worked example (statistics are pure functions of the samples)::

    >>> stats = BenchStats.of([1.0, 1.1, 1.05, 1.02, 9.0])
    >>> stats.outliers_rejected
    1
    >>> round(stats.min, 2), round(stats.median, 3)
    (1.0, 1.035)
    >>> stats.noise < 0.2
    True
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ReproError

BENCH_SCHEMA = "repro.bench/v1"
"""The schema tag stamped on every persisted benchmark point."""

QUICK_REPETITIONS = 3
"""Timed repetitions in the ``--quick`` tier."""

FULL_REPETITIONS = 7
"""Timed repetitions in the full tier."""


class BenchError(ReproError):
    """A benchmark-observatory failure (unknown suite, malformed file)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def _quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of pre-sorted samples, linearly interpolated."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class BenchStats:
    """Repetition statistics for one kernel's timing samples.

    Outlier rejection is one-sided: timing noise on a quiet machine only
    ever makes a deterministic kernel *slower* (scheduler preemption, GC,
    page faults), so samples above the Tukey upper fence
    ``Q3 + 1.5·IQR`` of the raw samples are dropped before the summary
    statistics; a fast sample is evidence about the true cost and is
    always kept.  ``noise`` is the relative spread ``IQR / median`` of
    the kept samples — the quantity regression gates scale with.

    Attributes:
        samples: the raw timed repetitions, in execution order (seconds).
        kept: the samples surviving outlier rejection, sorted ascending.
    """

    samples: tuple[float, ...]
    kept: tuple[float, ...]

    @classmethod
    def of(cls, samples: Iterable[float]) -> "BenchStats":
        """Reduce raw timing samples to statistics."""
        raw = tuple(float(sample) for sample in samples)
        if not raw:
            raise ValueError("a benchmark needs at least one sample")
        ordered = sorted(raw)
        q1 = _quantile(ordered, 0.25)
        q3 = _quantile(ordered, 0.75)
        fence = q3 + 1.5 * (q3 - q1)
        kept = tuple(sample for sample in ordered if sample <= fence)
        return cls(samples=raw, kept=kept)

    @property
    def min(self) -> float:
        """The fastest kept sample — the best estimate of the true cost."""
        return self.kept[0]

    @property
    def median(self) -> float:
        """The median kept sample — what comparisons run on."""
        return _quantile(self.kept, 0.5)

    @property
    def q1(self) -> float:
        """The first quartile of the kept samples."""
        return _quantile(self.kept, 0.25)

    @property
    def q3(self) -> float:
        """The third quartile of the kept samples."""
        return _quantile(self.kept, 0.75)

    @property
    def iqr(self) -> float:
        """The interquartile range of the kept samples."""
        return self.q3 - self.q1

    @property
    def noise(self) -> float:
        """Relative spread ``IQR / median`` (0.0 for a zero median)."""
        median = self.median
        return self.iqr / median if median else 0.0

    @property
    def outliers_rejected(self) -> int:
        """How many raw samples fell above the upper Tukey fence."""
        return len(self.samples) - len(self.kept)

    def to_payload(self) -> dict[str, Any]:
        """The JSON view persisted inside a benchmark point."""
        return {
            "repetitions": len(self.samples),
            "min": self.min,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "noise": self.noise,
            "outliers_rejected": self.outliers_rejected,
            "samples": list(self.samples),
        }


# ----------------------------------------------------------------------
# kernels and the registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchKernel:
    """One registered, zero-argument benchmark kernel.

    Attributes:
        suite: the suite the kernel belongs to (``e1`` … ``e9``, ``a1``,
            ``sim_core``); one ``BENCH_<suite>.json`` trajectory per
            suite.
        name: the kernel's name within the suite.
        fn: the zero-argument callable to measure.  Kernels assert their
            own shape claims (like the pytest benches), so a timing run
            doubles as a correctness run.
        quick: whether the kernel belongs to the ``--quick`` tier (small
            parameters, CI-speed); full-tier kernels run only without
            ``--quick``.
    """

    suite: str
    name: str
    fn: Callable[[], Any]
    quick: bool = False

    @property
    def key(self) -> tuple[str, str]:
        """The registry key ``(suite, name)``."""
        return (self.suite, self.name)

    @property
    def label(self) -> str:
        """The human label ``suite/name``."""
        return f"{self.suite}/{self.name}"


_REGISTRY: dict[tuple[str, str], BenchKernel] = {}


def register(
    suite: str,
    name: str,
    fn: Callable[[], Any],
    *,
    quick: bool = False,
) -> BenchKernel:
    """Register (or re-register) one kernel with the observatory."""
    kernel = BenchKernel(suite=suite, name=name, fn=fn, quick=quick)
    _REGISTRY[kernel.key] = kernel
    return kernel


def benchmark_kernel(
    suite: str, name: str | None = None, *, quick: bool = False
) -> Callable[[Callable[[], Any]], Callable[[], Any]]:
    """Decorator form of :func:`register` (name defaults to ``fn.__name__``)."""

    def decorate(fn: Callable[[], Any]) -> Callable[[], Any]:
        register(suite, name or fn.__name__, fn, quick=quick)
        return fn

    return decorate


def kernels(
    suites: Sequence[str] | None = None, quick: bool | None = None
) -> list[BenchKernel]:
    """Registered kernels, filtered by suite and tier, in stable order.

    Raises:
        BenchError: when ``suites`` names a suite with no kernels.
    """
    selected = sorted(_REGISTRY.values(), key=lambda kernel: kernel.key)
    if suites is not None:
        known = {kernel.suite for kernel in selected}
        missing = sorted(set(suites) - known)
        if missing:
            raise BenchError(
                f"unknown bench suite(s) {', '.join(missing)}; "
                f"registered: {', '.join(sorted(known)) or '(none)'}"
            )
        selected = [
            kernel for kernel in selected if kernel.suite in suites
        ]
    if quick:
        selected = [kernel for kernel in selected if kernel.quick]
    return selected


def load_benchmark_modules(directory: str) -> list[str]:
    """Import every ``bench_*.py`` module under ``directory``.

    Importing a benchmark module executes its registration block, which
    populates the observatory registry.  The directory is prepended to
    ``sys.path`` for the duration so intra-directory imports (the
    ``conftest`` report helpers) resolve exactly as they do under
    pytest.  Returns the module file names imported, sorted.

    Raises:
        BenchError: when ``directory`` has no benchmark modules.
    """
    path = os.path.abspath(directory)
    if not os.path.isdir(path):
        raise BenchError(f"benchmark directory {directory!r} not found")
    files = sorted(
        name
        for name in os.listdir(path)
        if name.startswith("bench_") and name.endswith(".py")
    )
    if not files:
        raise BenchError(
            f"no bench_*.py modules under {directory!r}"
        )
    inserted = path not in sys.path
    if inserted:
        sys.path.insert(0, path)
    try:
        for file_name in files:
            module_name = file_name[: -len(".py")]
            spec = importlib.util.spec_from_file_location(
                module_name, os.path.join(path, file_name)
            )
            assert spec is not None and spec.loader is not None
            module = importlib.util.module_from_spec(spec)
            # Re-executing an already imported module would double-run
            # its registration block (harmlessly) but waste time; reuse.
            existing = sys.modules.get(module_name)
            if existing is not None and getattr(
                existing, "__file__", None
            ) == os.path.join(path, file_name):
                continue
            sys.modules[module_name] = module
            spec.loader.exec_module(module)
    finally:
        if inserted:
            sys.path.remove(path)
    return files


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def environment_fingerprint() -> dict[str, Any]:
    """Where a benchmark point was measured: commit, interpreter, host.

    Best-effort: a checkout without git (or a non-repository directory)
    records ``"unknown"`` for the SHA rather than failing the run.
    """
    import platform
    import subprocess

    try:
        probe = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        git_sha = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha or "unknown",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


@dataclass(frozen=True)
class BenchPoint:
    """One measured benchmark point, ready to persist.

    The payload (:meth:`to_payload`) is the schema-versioned record the
    ``BENCH_<suite>.json`` trajectory accumulates.
    """

    kernel: str
    suite: str
    stats: BenchStats
    tracemalloc_peak_bytes: int
    objects: dict[str, int]
    fingerprint: dict[str, Any]
    warmup: int
    tier: str
    unix_time: float

    def to_payload(self) -> dict[str, Any]:
        """The JSON record appended to the suite trajectory."""
        return {
            "schema": BENCH_SCHEMA,
            "suite": self.suite,
            "kernel": self.kernel,
            "tier": self.tier,
            "warmup": self.warmup,
            "unix_time": self.unix_time,
            "stats": self.stats.to_payload(),
            "memory": {
                "tracemalloc_peak_bytes": self.tracemalloc_peak_bytes
            },
            "objects": dict(self.objects),
            "fingerprint": dict(self.fingerprint),
        }


@dataclass
class BenchRunner:
    """Measures registered kernels: warmup, timed repetitions, memory.

    The measurement protocol, per kernel:

    1. ``warmup`` untimed executions (caches, imports, allocator warmup);
    2. ``repetitions`` timed executions under ``clock`` — *without* any
       memory instrumentation, so timings are clean;
    3. one dedicated accounting pass under :mod:`tracemalloc` that also
       snapshots the sim-engine object counters, yielding the per-call
       allocation peak and exact object-materialization deltas.

    Args:
        repetitions: timed executions per kernel.
        warmup: untimed executions before the first timed one.
        clock: timestamp source (injectable: the statistics tests script
            it, so tier-1 never measures real time).
        trace_memory: disable to skip the accounting pass entirely
            (``tracemalloc_peak_bytes`` records 0).
        tier: the tier label stamped on the emitted points.
    """

    repetitions: int = FULL_REPETITIONS
    warmup: int = 1
    clock: Callable[[], float] = time.perf_counter
    trace_memory: bool = True
    tier: str = "full"

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(
                f"need at least one repetition, got {self.repetitions}"
            )
        if self.warmup < 0:
            raise ValueError(f"negative warmup {self.warmup}")

    def measure(self, kernel: BenchKernel) -> BenchPoint:
        """Run one kernel through the full measurement protocol."""
        for _ in range(self.warmup):
            kernel.fn()
        samples: list[float] = []
        for _ in range(self.repetitions):
            begin = self.clock()
            kernel.fn()
            samples.append(self.clock() - begin)
        peak, objects = self._accounting_pass(kernel)
        return BenchPoint(
            kernel=kernel.name,
            suite=kernel.suite,
            stats=BenchStats.of(samples),
            tracemalloc_peak_bytes=peak,
            objects=objects,
            fingerprint=environment_fingerprint(),
            warmup=self.warmup,
            tier=self.tier,
            unix_time=time.time(),
        )

    def _accounting_pass(
        self, kernel: BenchKernel
    ) -> tuple[int, dict[str, int]]:
        """One non-timed execution under memory/object instrumentation."""
        from repro.sim.engine import object_counts, object_counts_delta

        before = object_counts()
        if not self.trace_memory:
            kernel.fn()
            return 0, object_counts_delta(before)
        # Nested tracing (a caller already tracing memory) degrades to
        # counters-only rather than clobbering the outer trace.
        if tracemalloc.is_tracing():
            kernel.fn()
            return 0, object_counts_delta(before)
        tracemalloc.start()
        try:
            kernel.fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, object_counts_delta(before)


# ----------------------------------------------------------------------
# the persisted trajectory
# ----------------------------------------------------------------------


def trajectory_file_name(suite: str) -> str:
    """The trajectory file name for ``suite``."""
    return f"BENCH_{suite}.json"


def read_bench_file(path: str) -> list[dict[str, Any]]:
    """Every point of one trajectory file, oldest first.

    Raises:
        OSError: when the file cannot be read.
        ArtifactError: when the document is not a known bench
            trajectory (an environment failure; the CLI exits 2).  The
            diagnostic is the shared :mod:`repro.artifact` one-liner.
    """
    from repro.artifact import load_artifact

    def parse(text: str) -> list[dict[str, Any]]:
        document = json.loads(text)
        if (
            not isinstance(document, dict)
            or document.get("schema") != BENCH_SCHEMA
            or not isinstance(document.get("points"), list)
        ):
            raise ValueError(
                f"expected schema {BENCH_SCHEMA!r} with a points list"
            )
        return document["points"]

    return load_artifact(path, "bench trajectory", parse)


def append_points(
    directory: str, points: Iterable[BenchPoint]
) -> list[str]:
    """Append points to their per-suite trajectories under ``directory``.

    Creates ``directory`` (and each ``BENCH_<suite>.json``) on demand;
    existing trajectories keep their history — the trajectory is the
    point, one run after another.  Returns the file paths written.
    """
    by_suite: dict[str, list[BenchPoint]] = {}
    for point in points:
        by_suite.setdefault(point.suite, []).append(point)
    os.makedirs(directory, exist_ok=True)
    written = []
    for suite, suite_points in sorted(by_suite.items()):
        path = os.path.join(directory, trajectory_file_name(suite))
        history = (
            read_bench_file(path) if os.path.exists(path) else []
        )
        history.extend(point.to_payload() for point in suite_points)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"schema": BENCH_SCHEMA, "points": history},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        written.append(path)
    return written


def latest_by_kernel(
    points: Iterable[dict[str, Any]],
) -> dict[tuple[str, str], dict[str, Any]]:
    """The newest point per ``(suite, kernel)`` (file order breaks ties)."""
    latest: dict[tuple[str, str], dict[str, Any]] = {}
    for point in points:
        latest[(point["suite"], point["kernel"])] = point
    return latest


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelDelta:
    """One kernel's baseline-vs-current comparison row.

    ``gate`` is the noise-aware threshold the delta is judged against:
    ``max(threshold, 3 × max(baseline noise, current noise))``.  A
    kernel regresses only when its median slows down by more than the
    gate — so a noisy kernel needs a proportionally bigger slowdown to
    be flagged, and a 20% default floor keeps quiet kernels from
    flagging on measurement jitter.
    """

    suite: str
    kernel: str
    baseline_median: float
    current_median: float
    noise: float
    gate: float
    delta: float

    @property
    def regressed(self) -> bool:
        """Whether the slowdown exceeds the noise-aware gate."""
        return self.delta > self.gate

    @property
    def improved(self) -> bool:
        """Whether the speedup exceeds the noise-aware gate."""
        return self.delta < -self.gate

    @property
    def verdict(self) -> str:
        """``"REGRESSION"``, ``"improved"`` or ``"ok"``."""
        if self.regressed:
            return "REGRESSION"
        if self.improved:
            return "improved"
        return "ok"


@dataclass(frozen=True)
class CompareReport:
    """The gathered baseline-vs-current comparison.

    Attributes:
        deltas: one row per kernel present on both sides.
        missing: kernels in the baseline with no current point
            (``suite/kernel`` labels) — surfaced, never silently
            dropped.
    """

    deltas: tuple[KernelDelta, ...]
    missing: tuple[str, ...] = ()
    threshold: float = 0.2

    @property
    def regressions(self) -> tuple[KernelDelta, ...]:
        """The flagged rows."""
        return tuple(delta for delta in self.deltas if delta.regressed)

    @property
    def ok(self) -> bool:
        """Whether no kernel regressed."""
        return not self.regressions

    def render(self) -> str:
        """The per-kernel comparison table plus the verdict line."""
        from repro.analysis.tables import render_table

        rows = [
            (
                delta.suite,
                delta.kernel,
                f"{delta.baseline_median * 1e3:.2f}",
                f"{delta.current_median * 1e3:.2f}",
                f"{delta.delta * 100:+.1f}%",
                f"{delta.gate * 100:.0f}%",
                delta.verdict,
            )
            for delta in self.deltas
        ]
        table = render_table(
            ("suite", "kernel", "base ms", "now ms", "delta",
             "gate", "verdict"),
            rows,
        )
        lines = [table]
        for label in self.missing:
            lines.append(f"missing current point for {label}")
        flagged = self.regressions
        lines.append(
            f"{len(flagged)} regression(s) in {len(self.deltas)} "
            f"compared kernel(s) "
            f"(gate = max({self.threshold * 100:.0f}%, 3x noise))"
        )
        return "\n".join(lines)


def compare_points(
    baseline: Iterable[dict[str, Any]],
    current: Iterable[dict[str, Any]],
    threshold: float = 0.2,
) -> CompareReport:
    """Compare two point sets with the noise-aware regression gate.

    Both sides are reduced to their newest point per kernel; each shared
    kernel's median delta ``current/baseline - 1`` is judged against
    ``max(threshold, 3 × max(noise_baseline, noise_current))``.
    """
    base = latest_by_kernel(baseline)
    now = latest_by_kernel(current)
    deltas = []
    missing = []
    for key in sorted(base):
        suite, kernel = key
        if key not in now:
            missing.append(f"{suite}/{kernel}")
            continue
        base_stats = base[key]["stats"]
        now_stats = now[key]["stats"]
        base_median = float(base_stats["median"])
        now_median = float(now_stats["median"])
        noise = max(
            float(base_stats.get("noise", 0.0)),
            float(now_stats.get("noise", 0.0)),
        )
        gate = max(threshold, 3.0 * noise)
        delta = (
            now_median / base_median - 1.0 if base_median else 0.0
        )
        deltas.append(
            KernelDelta(
                suite=suite,
                kernel=kernel,
                baseline_median=base_median,
                current_median=now_median,
                noise=noise,
                gate=gate,
                delta=delta,
            )
        )
    return CompareReport(
        deltas=tuple(deltas),
        missing=tuple(missing),
        threshold=threshold,
    )


def render_points(points: Sequence[BenchPoint]) -> str:
    """The per-kernel measurement table a ``bench run`` prints."""
    from repro.analysis.tables import render_table

    rows = [
        (
            point.suite,
            point.kernel,
            f"{point.stats.min * 1e3:.2f}",
            f"{point.stats.median * 1e3:.2f}",
            f"{point.stats.iqr * 1e3:.2f}",
            f"{point.stats.noise * 100:.1f}%",
            point.stats.outliers_rejected,
            f"{point.tracemalloc_peak_bytes / 1024:.0f}",
            point.objects.get("messages_materialized", 0),
            point.objects.get("behaviors_built", 0),
        )
        for point in points
    ]
    return render_table(
        ("suite", "kernel", "min ms", "median ms", "IQR ms", "noise",
         "outliers", "peak KiB", "messages", "behaviors"),
        rows,
    )
