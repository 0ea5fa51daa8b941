"""The repository's end-to-end benchmark: four paper workloads.

Usage::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out FILE]

Each workload runs a list of operations generated from ``--seed``
(:mod:`workloads`) against the program in ``src/`` of this checkout,
as a closed loop with one client: an operation starts when the previous
one has answered.  Every operation's output is checked; a failed check
counts as a failed operation.

* ``paper_all`` — ``python -m repro all`` in a fresh process, stdout
  compared byte for byte with ``golden/repro_all.txt``.
* ``cheater_matrix`` — one certified attack cell through
  ``SweepScheduler(jobs=1)``, the certificate verified at gather.
* ``attack_traced`` — one attack traced into a fresh world log, then
  read back with ``log_stats``.
* ``service_mixed`` — one submission to a ``repro serve --jobs 1``
  child over its unix socket: fresh certified attacks, ``measure`` and
  ``classify`` jobs, and resubmissions of finished keys.

Without ``--seconds`` the whole list runs; with it, the loop stops
starting operations once ``S`` seconds have passed, at the next block
boundary.  ``--quick`` keeps a tenth of the list.  Without
``--workload`` every workload runs, each in its own process.  Timings
are normalized to a reference machine speed (:mod:`speed`).

Untraced runs (``--trace 0``, the default) report the end-to-end
metrics, including ``setup_s``: the median of seven cold starts of the
workload's process.  A traced run (``--trace`` or ``--trace 1``) first
runs half the time untraced, then the same operations again with every
layer of :mod:`layers` wrapped, and reports each layer's self time per
operation plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics ``BENCHMARK.json``
lists for the mode); ``--out`` also writes every metric to ``FILE`` for
``compare.py``.  Exit status: 0 when every operation passed its check,
1 when one failed, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden" / "repro_all.txt"
BENCHMARK = ROOT / "BENCHMARK.json"

from speed import Sampler, SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    BLOCKS,
    COUNTS,
    SERVICE_WARM_UP,
    WORKLOADS,
    Op,
    op_list,
)

COLD_STARTS = 7
CHILD_TIMEOUT_S = 120.0
SERVER_READY_TIMEOUT_S = 30.0
UNLIMITED = "1000000"
"""``--rate``/``--burst``/``--max-pending`` of the benchmark's server:
far above what one closed-loop client can offer."""
RSS_AFTER_JOBS = 200
"""The server keeps every log record in memory, so its RSS grows with
the jobs it served; its peak is read after this many measured jobs, so
that programs of different speed are compared at equal work."""


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------


def load_program() -> None:
    """Put this checkout's ``src/`` first on the import path.

    Raises:
        SystemExit: (status 2) when the checkout has no program, or
            ``repro`` would be imported from somewhere else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    The cores of a shared host slow down independently; on one core the
    reference loop (:mod:`speed`) times the core the program runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Child:
    """A finished child process."""

    returncode: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


@contextmanager
def deadline(proc: subprocess.Popen) -> Iterator[None]:
    """Kill ``proc`` if it still runs :data:`CHILD_TIMEOUT_S` after entry."""
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        yield
    finally:
        killer.cancel()


def reap(proc: subprocess.Popen) -> int:
    """Wait for ``proc`` with ``wait4``; the child's own peak RSS (KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def run_child(argv: list[str], work: Path) -> Child:
    """Run ``argv`` to completion; capture output and peak RSS."""
    with tempfile.TemporaryFile(dir=work) as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env()
        )
        assert proc.stdout is not None
        with deadline(proc), proc.stdout:
            out = proc.stdout.read()
            rss_kb = reap(proc)
        err.seek(0)
        return Child(proc.returncode, out, err.read(), rss_kb)


def cold_start_import(modules: tuple[str, ...], work: Path) -> float:
    """Seconds from spawning a Python process to its imports being done."""
    begin = time.perf_counter()
    child = run_child(
        [sys.executable, "-c", "import " + ", ".join(modules)], work)
    elapsed = time.perf_counter() - begin
    if child.returncode != 0:
        raise RuntimeError(child.stderr.decode(errors="replace"))
    return elapsed


def peak_rss_kb_of(pid: int) -> int | None:
    """A live process's peak RSS so far (``None`` without ``/proc``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def add_layers(into: dict[str, dict[str, float]], layers: dict) -> None:
    for layer, totals in layers.items():
        entry = into.setdefault(layer, {})
        for name, value in totals.items():
            entry[name] = entry.get(name, 0) + value


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """One workload's program-facing half.

    :meth:`perform` is the timed operation; :meth:`check` validates its
    output afterwards, outside the timed region.  ``child_layers``
    collects the layer totals of traced child processes.
    """

    main_kind = "attack"
    imports: tuple[str, ...] = ()
    in_child = False
    """Whether the program's work happens in a child process."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.traced = False
        self.child_layers: dict[str, dict[str, float]] = {}
        self.log_bytes = 0
        self.job_wall: float | None = None

    def cold_start(self) -> float:
        return cold_start_import(self.imports, self.work)

    def open(self, traced: bool) -> None:
        self.traced = traced
        self.child_layers = {}
        self.log_bytes = 0
        for module in self.imports:
            __import__(module)

    def warm_up_ops(self, ops: list[Op]) -> list[Op]:
        """Ops run untimed after :meth:`open`, so that lazy imports and
        bytecode compilation are done before timing starts."""
        return ops[:1]

    def perform(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, raw: Any) -> str | None:
        """``None`` when the output is right, else what is wrong.

        Sets :attr:`job_wall` to the job's own wall time when the
        program reports one.
        """
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PaperAll(Workload):
    main_kind = "all"
    imports = ("repro.cli",)
    in_child = True

    def open(self, traced: bool) -> None:
        super().open(traced)
        self.golden = GOLDEN.read_bytes()
        self.rss_kb = 0
        self.runs = 0

    def perform(self, op: Op) -> Child:
        if self.traced:
            self.runs += 1
            totals = self.work / f"all-{self.runs}.json"
            argv = [sys.executable, str(HERE / "traced_child.py"),
                    str(totals), "--", "all"]
        else:
            argv = [sys.executable, "-m", "repro", "all"]
        begin = time.perf_counter()
        child = run_child(argv, self.work)
        elapsed = time.perf_counter() - begin
        self.rss_kb = max(self.rss_kb, child.rss_kb)
        if self.traced:
            traced = json.loads(totals.read_text())
            # interpreter start, imports and exit, around the command
            traced["layers"]["startup"] = {
                "self_s": elapsed - traced["wall_s"], "calls": 1}
            add_layers(self.child_layers, traced["layers"])
        return child

    def check(self, op: Op, child: Child) -> str | None:
        if child.returncode != 0:
            return (f"exit {child.returncode}: "
                    f"{child.stderr.decode(errors='replace')[-300:]}")
        if child.stdout != self.golden:
            return "stdout differs from golden/repro_all.txt"
        return None

    def peak_rss_kb(self) -> int:
        return self.rss_kb


class CheaterMatrix(Workload):
    imports = ("repro.parallel.scheduler", "repro.parallel.jobs",
               "repro.certify.verifier")

    def perform(self, op: Op) -> Any:
        from repro.parallel.jobs import AttackJob
        from repro.parallel.scheduler import SweepScheduler

        job = AttackJob(op.builder, op.n, op.t, certify=True)
        return SweepScheduler(jobs=1).run([job])

    def check(self, op: Op, report: Any) -> str | None:
        cell = report.cells[0]
        if cell.error is not None:
            return f"{cell.error.kind}: {cell.error.message}"
        if not cell.result.value.found_violation:
            return "no violation found"
        if report.certificates_verified != 1:
            return f"{report.certificates_verified} certificates verified"
        self.job_wall = cell.result.wall_seconds
        return None


@dataclass
class TracedAttack:
    outcome: Any
    written: int
    records: int
    stats: dict


class AttackTraced(Workload):
    imports = ("repro.experiments", "repro.lowerbound.driver",
               "repro.obs.ledger", "repro.obs.tracer",
               "repro.worldlog.store", "repro.worldlog.replay")

    def perform(self, op: Op) -> TracedAttack:
        from repro.experiments import CHEATERS
        from repro.lowerbound.driver import attack_weak_consensus
        from repro.obs.ledger import RunLedger
        from repro.obs.tracer import LedgerTracer
        from repro.worldlog.replay import log_stats
        from repro.worldlog.store import WorldLog, read_records

        path = str(self.work / "attack.worldlog")
        log = WorldLog.create(path)
        try:
            outcome = attack_weak_consensus(
                CHEATERS[op.builder](op.n, op.t),
                tracer=LedgerTracer(RunLedger(sink=log.record_event)),
                worldlog=log,
            )
            written = len(log.records)
        finally:
            log.close()
        records = read_records(path)
        stats = log_stats(records)
        self.log_bytes += os.path.getsize(path)
        return TracedAttack(outcome, written, len(records), stats)

    def check(self, op: Op, run: TracedAttack) -> str | None:
        if not run.outcome.found_violation:
            return "no violation found"
        if run.records != run.written:
            return f"read back {run.records} of {run.written} records"
        if run.stats["messages_observed"] != run.outcome.bound.observed:
            return (f"log_stats saw {run.stats['messages_observed']} "
                    f"messages, the attack {run.outcome.bound.observed}")
        return None


def service_job(op: Op) -> Any:
    from repro.parallel.jobs import AttackJob, ClassifyJob, MeasureJob

    kind = op.of or op.kind
    if kind == "attack":
        return AttackJob(op.builder, op.n, op.t, certify=True)
    if kind == "measure":
        return MeasureJob(op.builder, op.n, op.t)
    return ClassifyJob(op.builder, op.n, op.t)


class ServiceMixed(Workload):
    imports = ("repro.service.client", "repro.worldlog.codec",
               "repro.parallel.jobs")
    in_child = True

    def __init__(self, work: Path) -> None:
        super().__init__(work)
        self.servers = 0
        self.proc: subprocess.Popen | None = None
        self.rss_kb: int | None = None

    def _start(self, traced: bool) -> float:
        """Start a server on a fresh log; seconds until it answers."""
        from repro.service.client import ServiceClient

        self.servers += 1
        self.log = self.work / f"service-{self.servers}.worldlog"
        self.totals = self.work / f"service-{self.servers}.json"
        # relative to the root: unix socket paths must stay short
        self.socket = os.path.relpath(self.work / f"s{self.servers}.sock")
        serve = ["serve", "--socket", self.socket, "--log", str(self.log),
                 "--jobs", "1", "--rate", UNLIMITED, "--burst", UNLIMITED,
                 "--max-pending", UNLIMITED]
        if traced:
            argv = [sys.executable, str(HERE / "traced_child.py"),
                    str(self.totals), "--", *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self.stderr = open(self.work / f"service-{self.servers}.err", "wb")
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=self.stderr,
            env=child_env(),
        )
        self.client = ServiceClient(self.socket, timeout=CHILD_TIMEOUT_S)
        while True:
            try:
                self.client.ping()
                return time.perf_counter() - begin
            except OSError:
                if self.proc.poll() is not None:
                    raise RuntimeError(self._server_error()) from None
                if time.perf_counter() - begin > SERVER_READY_TIMEOUT_S:
                    raise
                time.sleep(0.002)

    def _stop(self) -> None:
        """Shut the server down and reap it (killed if it hangs)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            self.client.shutdown()
        except OSError:
            proc.kill()
        try:
            with deadline(proc):
                rss_kb = reap(proc)
        finally:
            self.stderr.close()
        if self.rss_kb is None:
            self.rss_kb = rss_kb
        if proc.returncode != 0:
            raise RuntimeError(self._server_error())

    def _server_error(self) -> str:
        self.stderr.flush()
        text = (self.work / f"service-{self.servers}.err").read_bytes()
        return "server failed: " + text.decode(errors="replace")[-500:]

    def cold_start(self) -> float:
        try:
            return self._start(traced=False)
        finally:
            self._stop()

    def warm_up_ops(self, ops: list[Op]) -> list[Op]:
        return list(SERVICE_WARM_UP)

    def open(self, traced: bool) -> None:
        super().open(traced)
        self.rss_kb = None
        self.checked = 0
        self.answers: dict[str, str] = {}
        self._start(traced)

    def perform(self, op: Op) -> list[dict]:
        from repro.worldlog.codec import encode_job

        return list(self.client.submit_wait(encode_job(service_job(op))))

    def check(self, op: Op, frames: list[dict]) -> str | None:
        from repro.worldlog.codec import decode_job_result

        self.checked += 1
        if self.checked == RSS_AFTER_JOBS + len(SERVICE_WARM_UP):
            self.rss_kb = peak_rss_kb_of(self.proc.pid)
        final = frames[-1]
        record = final.get("record")
        if not final.get("final") or record is None:
            return "stream ended without a terminal record"
        key = frames[0]["key"]
        payload = json.dumps(record["payload"], sort_keys=True)
        if op.kind == "replay":
            if len(frames) != 1 or frames[0].get("cached") is not True:
                return "resubmission was not answered from the log"
            if payload != self.answers.get(key):
                return "replayed terminal payload differs from the first"
            return None
        if record["kind"] != "job.result" or frames[0].get("cached"):
            return f"fresh job ended in {record['kind']}"
        result = decode_job_result(record["payload"]["result"])
        if op.kind == "attack" and not (
            result.value.found_violation and result.certificate
        ):
            return "attack job found no certified violation"
        if op.kind == "classify" and result.value.problem != op.builder:
            return "classify job answered for another problem"
        self.answers[key] = payload
        self.job_wall = result.wall_seconds
        return None

    def close(self) -> None:
        self._stop()
        if self.traced:
            add_layers(self.child_layers,
                       json.loads(self.totals.read_text())["layers"])
        self.log_bytes += self.log.stat().st_size

    def peak_rss_kb(self) -> int:
        return self.rss_kb


RUNNERS: dict[str, type[Workload]] = {
    "paper_all": PaperAll,
    "cheater_matrix": CheaterMatrix,
    "attack_traced": AttackTraced,
    "service_mixed": ServiceMixed,
}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One operation: its wall time, and that time normalized to the
    reference machine speed (:mod:`speed`)."""

    op: Op
    latency_s: float
    norm_s: float
    error: str | None
    job_wall_s: float | None = None

    @property
    def factor(self) -> float:
        return self.norm_s / self.latency_s


@dataclass
class Phase:
    samples: list[Sample] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(sample.latency_s for sample in self.samples)

    @property
    def norm_s(self) -> float:
        return sum(sample.norm_s for sample in self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample.error)


def closed_loop(
    workload: Workload,
    ops: list[Op],
    seconds: float | None,
    recorder: Any = None,
    block: int = 1,
) -> Phase:
    """Run ``ops`` one after another until the list or the time ends.

    Time runs out only between blocks of ``block`` ops.  With a
    ``recorder`` the layer totals of each operation's timed part are
    collected (the check that follows is left out).
    """
    phase = Phase()
    probe = SpeedProbe()
    phase.references = probe.samples
    begin = time.perf_counter()
    for index, op in enumerate(ops):
        if (
            seconds is not None
            and index
            and index % block == 0
            and time.perf_counter() - begin >= seconds
        ):
            break
        if recorder is not None:
            recorder.reset()
        with Sampler() if workload.in_child else nullcontext() as sampler:
            start = time.perf_counter()
            try:
                raw = workload.perform(op)
            except Exception as exc:  # a failed op, not a failed benchmark
                error = f"{type(exc).__name__}: {exc}"
                raw = None
            else:
                error = None
            latency = time.perf_counter() - start
        factor = probe.factor(sampler.samples if sampler else [])
        if recorder is not None:
            add_layers(phase.layers, recorder.totals())
        workload.job_wall = None
        if error is None:
            try:
                error = workload.check(op, raw)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        phase.samples.append(
            Sample(op, latency, latency * factor, error, workload.job_wall))
    return phase


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def cold_starts(workload: Workload) -> list[Sample]:
    """:data:`COLD_STARTS` timed cold starts, after one untimed one
    that compiles the bytecode.

    No :class:`Sampler` here: while the service starts, this process
    polls it, and the polling thread would preempt the sampling one.
    """
    workload.cold_start()
    probe = SpeedProbe()
    samples = []
    for _ in range(COLD_STARTS):
        seconds = workload.cold_start()
        samples.append(
            Sample(Op("setup"), seconds, seconds * probe.factor(), None))
    return samples


def end_to_end(
    workload: Workload, phase: Phase, setups: list[Sample]
) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric this workload supports.

    Timings are normalized (:mod:`speed`); the ``wall.*`` metrics are
    the same timings as the wall clock read them.
    """
    ok = [s for s in phase.samples if s.error is None]
    main = [s for s in ok if s.op.kind == workload.main_kind]
    replays = [s for s in ok if s.op.kind == "replay"]
    metrics = {}
    for prefix, time_of in (("", lambda s: s.norm_s),
                            ("wall.", lambda s: s.latency_s)):
        metrics[f"{prefix}setup_s"] = (
            statistics.median(map(time_of, setups)), "s")
        metrics[f"{prefix}ops_per_s"] = (
            len(ok) / sum(map(time_of, phase.samples)), "1/s")
        metrics[f"{prefix}op_p50_ms"] = (
            statistics.median(map(time_of, main)) * 1e3, "ms")
        if workload.main_kind != "all":
            metrics[f"{prefix}op_p90_ms"] = (
                quantile(list(map(time_of, main)), 0.9) * 1e3, "ms")
        if replays:
            metrics[f"{prefix}replay_p50_ms"] = (
                statistics.median(map(time_of, replays)) * 1e3, "ms")
    metrics["error_rate"] = (phase.failed / len(phase.samples), "ratio")
    metrics["peak_rss_mb"] = (workload.peak_rss_kb() / 1024, "MB")
    metrics["reference_ms"] = (
        statistics.median(phase.references) * 1e3, "ms")
    return metrics


def layer_names() -> list[str]:
    """Every layer of :mod:`layers`, plus ``startup``: a child
    process's interpreter start, imports and exit around its command."""
    from layers import STATIC_LAYERS

    return ["startup", "protocols", *STATIC_LAYERS]


def per_layer(
    workload: Workload, untraced: Phase, traced: Phase
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, per operation."""
    layers: dict[str, dict[str, float]] = {}
    add_layers(layers, traced.layers)
    add_layers(layers, workload.child_layers)
    count = len(traced.samples)
    wall = traced.wall_s
    # self times are wall times; they are normalized with the traced
    # phase's mean factor
    factor = traced.norm_s / wall
    metrics: dict[str, tuple[float, str]] = {
        "trace.op_ms": (traced.norm_s * 1e3 / count, "ms"),
    }
    # over every layer recorded, so a layer missing from layer_names()
    # shows up as a gap between the reported self times and the wall
    attributed = sum(totals["self_s"] for totals in layers.values())
    for layer in layer_names():
        totals = layers.get(layer, {})
        seconds = totals.get("self_s", 0.0)
        metrics[f"{layer}.ms_per_op"] = (
            seconds * factor * 1e3 / count, "ms")
        metrics[f"{layer}.share"] = (seconds / wall, "ratio")
        metrics[f"{layer}.calls_per_op"] = (
            totals.get("calls", 0) / count, "count")
    certify = layers.get("certify.build", {})
    metrics["certify.bytes_per_op"] = (certify.get("bytes", 0) / count, "B")
    driver = layers.get("lowerbound", {})
    baseline = driver.get("rounds_baseline", 0)
    metrics["lowerbound.reuse_ratio"] = (
        1 - driver.get("rounds_simulated", 0) / baseline if baseline else 0.0,
        "ratio",
    )
    metrics["worldlog.bytes_per_op"] = (workload.log_bytes / count, "B")
    metrics["trace.unattributed_ms_per_op"] = (
        (wall - attributed) * factor * 1e3 / count, "ms")
    metrics["trace.unattributed.share"] = ((wall - attributed) / wall, "ratio")
    metrics["trace.overhead_frac"] = (
        (traced.norm_s - untraced.norm_s) / untraced.norm_s, "ratio")
    overheads = [
        (sample.latency_s - sample.job_wall_s) * sample.factor
        for sample in untraced.samples
        if sample.op.kind == "attack" and sample.job_wall_s is not None
    ]
    if overheads:
        metrics["job.overhead_ms"] = (
            statistics.median(overheads) * 1e3, "ms")
    return metrics


# ----------------------------------------------------------------------
# one workload, end to end
# ----------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    errors: list[str]


def measure(
    workload: Workload,
    ops: list[Op],
    seconds: float | None,
    block: int,
    recorder: Any = None,
) -> list[Phase]:
    """Open the workload, run the loop, close it: ``[loop, warm-up]``.

    Untraced phases warm up first.  A traced phase needs no warm-up:
    its process is warm from the untraced phase, or imported every
    layer when the table was installed.
    """
    workload.open(traced=recorder is not None)
    try:
        warm = [] if recorder else [
            closed_loop(workload, workload.warm_up_ops(ops), None)]
        return [closed_loop(workload, ops, seconds, recorder, block), *warm]
    finally:
        workload.close()


def require_successes(name: str, phase: Phase) -> None:
    """Exit with status 1 when no operation passed: nothing to measure."""
    if phase.failed == len(phase.samples):
        print(f"error: every {name} operation failed; the first: "
              f"{phase.samples[0].error}", file=sys.stderr)
        raise SystemExit(1)


def run_workload(
    name: str, seed: int, seconds: float | None, trace: bool, quick: bool,
    work: Path,
) -> Result:
    count = COUNTS[name] // 10 if quick else COUNTS[name]
    ops = op_list(name, seed, max(1, count))
    workload = RUNNERS[name](work)
    if not trace:
        setups = cold_starts(workload)
        phases = measure(workload, ops, seconds, BLOCKS[name])
        require_successes(name, phases[0])
        metrics = end_to_end(workload, phases[0], setups)
    else:
        from layers import SpanRecorder, install

        phases = measure(workload, ops,
                         None if seconds is None else seconds / 2,
                         BLOCKS[name])
        untraced = phases[0]
        require_successes(name, untraced)
        recorder = SpanRecorder()
        installation = install(recorder)
        try:
            traced = measure(workload, ops[: len(untraced.samples)], None,
                             BLOCKS[name], recorder)[0]
        finally:
            installation.remove()
        require_successes(name, traced)
        metrics = per_layer(workload, untraced, traced)
        phases.append(traced)
    samples = [s for phase in phases for s in phase.samples]
    errors = [f"{s.op}: {s.error}" for s in samples if s.error]
    return Result(name, len(samples), len(errors), metrics, errors)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def listed_metrics(trace: bool) -> list[str]:
    """The metric names ``BENCHMARK.json`` lists for this mode."""
    spec = json.loads(BENCHMARK.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def render(result: Result, seed: int, trace: bool) -> str:
    lines = [
        f"{result.workload}: seed {seed}, "
        f"{'traced' if trace else 'untraced'}, closed loop, 1 client; "
        f"{result.attempted} ops, {result.failed} failed"
    ]
    metrics = result.metrics
    if trace:
        width = max(len(name) for name in layer_names())
        rows = sorted(
            layer_names(),
            key=lambda layer: -metrics[f"{layer}.ms_per_op"][0],
        )
        lines.append(f"  {'layer':<{width}}  {'ms/op':>10}  "
                     f"{'share':>6}  {'calls/op':>10}")
        for layer in rows:
            ms = metrics[f"{layer}.ms_per_op"][0]
            share = metrics[f"{layer}.share"][0]
            calls = metrics[f"{layer}.calls_per_op"][0]
            lines.append(f"  {layer:<{width}}  {ms:10.3f}  "
                         f"{share:6.1%}  {calls:10.1f}")
        per_layer_names = {
            f"{layer}.{suffix}" for layer in layer_names()
            for suffix in ("ms_per_op", "share", "calls_per_op")
        }
        rest = [name for name in metrics if name not in per_layer_names]
    else:
        rest = list(metrics)
    for name in rest:
        value, unit = metrics[name]
        lines.append(f"  {name:<30} {value:14.4f} {unit}")
    lines.extend(f"  FAILED {error}" for error in result.errors[:10])
    return "\n".join(lines)


def result_line(results: list[Result], trace: bool) -> str:
    wanted = listed_metrics(trace)
    metrics: dict[str, dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result.workload}/"
        for name in wanted:
            value, unit = result.metrics[name]
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(result.failed for result in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(result.attempted for result in results),
        "failed": failed,
        "metrics": metrics,
    })


def document(results: list[Result], args: argparse.Namespace) -> dict:
    return {
        "schema": "repro.e2e/v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "workloads": {
            result.workload: {
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
            for result in results
        },
    }


def run_each(args: argparse.Namespace) -> list[Result]:
    """Every workload, each in a fresh process of this script."""
    results = []
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".e2e-", dir=HERE) as scratch:
            out = Path(scratch) / "result.json"
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--trace", str(args.trace), "--out", str(out)]
            if args.seconds is not None:
                argv += ["--seconds", str(args.seconds)]
            if args.quick:
                argv.append("--quick")
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0], flush=True)
            if not out.exists():
                raise SystemExit(f"error: workload {name} produced no result")
            entry = json.loads(out.read_text())["workloads"][name]
        results.append(Result(
            name, entry["attempted"], entry["failed"],
            {k: (v["value"], v["unit"]) for k, v in entry["metrics"].items()},
            [],
        ))
    return results


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the end-to-end benchmark (see the module doc).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="stop starting operations after this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or the bare flag): per-layer traced run")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of each operation list")
    parser.add_argument("--out", help="also write every metric here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.out:
        args.out = os.path.abspath(args.out)
    load_program()
    pin_to_one_cpu()
    os.chdir(ROOT)
    if args.workload is None:
        results = run_each(args)
    else:
        work = Path(tempfile.mkdtemp(prefix=".e2e-", dir=HERE))
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.quick, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(render(result, args.seed, bool(args.trace)), flush=True)
        results = [result]
    if args.out:
        Path(args.out).write_text(
            json.dumps(document(results, args), indent=1) + "\n")
    print(result_line(results, bool(args.trace)))
    return 0 if all(result.failed == 0 for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
