"""The sweep scheduler: fan attack matrices out over worker processes.

The lower-bound sweep (every cheater × every ``(n, t)`` cell) is
embarrassingly parallel: cells share no state — each worker rebuilds its
spec from the registry by name, simulates with its own
:class:`~repro.lowerbound.driver.ExecutionCache`, and ships back a
picklable :class:`~repro.parallel.jobs.JobResult`.  Determinism of the
machines makes the fan-out safe: a cell's witnesses and verdicts do not
depend on which process runs it or when, so the parallel sweep is
bit-identical to the serial one (enforced by the cross-backend
equivalence tests).

:class:`SweepScheduler` owns the two backends:

* **serial** (``jobs=1``, the default) — runs cells in submission order
  in-process, exactly the historical sweep loop;
* **process** (``jobs>1``) — a
  :class:`concurrent.futures.ProcessPoolExecutor` fan-out.  Results are
  *gathered in deterministic cell order* regardless of completion order,
  per-cell failures (worker exceptions, timeouts, even a broken pool)
  are captured as structured :class:`CellError` records without aborting
  the other cells, and per-worker cache counters are merged into one
  aggregate via ``ExecutionCache.merge_stats``.

The gathered :class:`SweepReport` carries per-cell wall times, merged
cache accounting (hits / alias hits / misses), aggregate engine round
counters and any per-cell errors — the sweep-level analogue of
:class:`~repro.lowerbound.driver.AttackOutcome`'s engine counters.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.lowerbound.driver import ExecutionCache
from repro.obs.progress import (
    HeartbeatMonitor,
    SweepProgress,
    default_progress_stream,
)
from repro.parallel.jobs import (
    CacheStats,
    JobResult,
    SweepJob,
    execute_job,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.ledger import RunLedger
    from repro.obs.telemetry import TelemetryBus
    from repro.worldlog.store import WorldLog

SERIAL = "serial"
PROCESS = "process"


@dataclass(frozen=True)
class CellError:
    """A structured per-cell failure record.

    Attributes:
        kind: ``"exception"`` (the job raised), ``"timeout"`` (the cell
            exceeded the scheduler's per-cell budget),
            ``"broken-pool"`` (the worker process died and the
            in-process retry also failed) or ``"certificate"`` (the
            cell's shipped attack certificate failed the gather step's
            independent verification).
        message: the one-line failure description.
        detail: the formatted traceback (empty for timeouts).
    """

    kind: str
    message: str
    detail: str = ""


@dataclass(frozen=True)
class SweepCell:
    """One gathered cell: its identity plus a result or an error.

    Exactly one of ``result`` / ``error`` is set.  ``index`` is the
    cell's position in the submitted job sequence — the deterministic
    gather order.
    """

    index: int
    key: tuple[str, str, int, int]
    result: JobResult | None = None
    error: CellError | None = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the cell produced a result."""
        return self.result is not None

    @property
    def value(self) -> Any:
        """The cell's payload (raises on errored cells)."""
        if self.result is None:
            assert self.error is not None
            raise RuntimeError(
                f"cell {self.key} failed ({self.error.kind}): "
                f"{self.error.message}"
            )
        return self.result.value


@dataclass(frozen=True)
class SweepReport:
    """The gathered outcome of one scheduled sweep.

    Attributes:
        backend: ``"serial"`` or ``"process"``.
        jobs: the worker count the sweep ran with.
        cells: every cell in deterministic submission order.
        wall_seconds: the sweep's end-to-end wall time.
        cache: merged per-worker execution-cache counters.
        rounds_simulated: engine rounds actually simulated, summed.
        rounds_baseline: reuse-free baseline rounds, summed.
        certificates_verified: how many shipped cell certificates the
            gather step's independent verifier accepted (cells whose
            certificate is rejected surface as ``"certificate"`` errors,
            never as results).
    """

    backend: str
    jobs: int
    cells: tuple[SweepCell, ...]
    wall_seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    rounds_simulated: int = 0
    rounds_baseline: int = 0
    certificates_verified: int = 0

    @property
    def ok(self) -> bool:
        """Whether every cell produced a result."""
        return all(cell.ok for cell in self.cells)

    def values(self) -> list[Any]:
        """Payloads of the successful cells, in cell order."""
        return [cell.result.value for cell in self.cells if cell.ok]

    def errors(self) -> list[SweepCell]:
        """The errored cells, in cell order."""
        return [cell for cell in self.cells if not cell.ok]

    def cell_seconds(self) -> dict[tuple[str, str, int, int], float]:
        """Per-cell wall seconds keyed by cell identity."""
        return {cell.key: cell.wall_seconds for cell in self.cells}

    def raise_errors(self) -> None:
        """Raise a summary :class:`RuntimeError` if any cell failed."""
        errored = self.errors()
        if errored:
            summary = "; ".join(
                f"{cell.key} [{cell.error.kind}] {cell.error.message}"
                for cell in errored
                if cell.error is not None
            )
            raise RuntimeError(
                f"{len(errored)}/{len(self.cells)} sweep cells failed: "
                f"{summary}"
            )

    def render(self) -> str:
        """A per-cell timing/accounting table plus the aggregate line."""
        from repro.analysis.tables import render_table

        rows = []
        for cell in self.cells:
            kind, builder, n, t = cell.key
            if cell.ok:
                assert cell.result is not None
                status = "ok"
                stats = cell.result.cache or CacheStats()
                detail = (
                    f"{stats.hits}/{stats.alias_hits}/{stats.misses}"
                    if cell.result.cache is not None
                    else "-"
                )
            else:
                assert cell.error is not None
                status = f"ERROR:{cell.error.kind}"
                detail = "-"
            rows.append(
                (
                    kind,
                    builder,
                    n,
                    t,
                    f"{cell.wall_seconds * 1e3:.1f}",
                    detail,
                    status,
                )
            )
        table = render_table(
            ("kind", "builder", "n", "t", "wall ms",
             "hits/alias/miss", "status"),
            rows,
        )
        summary = (
            f"backend={self.backend} jobs={self.jobs} "
            f"wall={self.wall_seconds * 1e3:.1f} ms; cache "
            f"{self.cache.hits} hits, {self.cache.alias_hits} alias "
            f"hits, {self.cache.misses} misses; simulated "
            f"{self.rounds_simulated} rounds vs {self.rounds_baseline} "
            f"baseline"
        )
        if self.certificates_verified:
            summary += (
                f"; {self.certificates_verified} certificate(s) verified"
            )
        return f"{table}\n{summary}"

    def to_payload(self) -> dict[str, Any]:
        """A JSON-serializable summary of the sweep."""
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache": {
                "hits": self.cache.hits,
                "alias_hits": self.cache.alias_hits,
                "misses": self.cache.misses,
            },
            "rounds_simulated": self.rounds_simulated,
            "rounds_baseline": self.rounds_baseline,
            "certificates_verified": self.certificates_verified,
            "cells": [
                {
                    "kind": cell.key[0],
                    "builder": cell.key[1],
                    "n": cell.key[2],
                    "t": cell.key[3],
                    "wall_seconds": cell.wall_seconds,
                    "ok": cell.ok,
                    "error": (
                        None
                        if cell.error is None
                        else {
                            "kind": cell.error.kind,
                            "message": cell.error.message,
                        }
                    ),
                }
                for cell in self.cells
            ],
        }


def _error_from(exc: BaseException, kind: str = "exception") -> CellError:
    return CellError(
        kind=kind,
        message=f"{type(exc).__name__}: {exc}",
        detail="".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    )


@dataclass
class SweepScheduler:
    """Shards a job matrix across workers and gathers deterministically.

    Attributes:
        jobs: worker count; ``1`` selects the in-process serial backend
            (bit-identical to the historical sweep loop), ``> 1`` the
            process-pool backend.
        timeout: optional per-cell wall-clock budget in seconds (process
            backend only); an overrunning cell is recorded as a
            ``"timeout"`` :class:`CellError` and the sweep moves on.
        ledger: optional sweep :class:`~repro.obs.ledger.RunLedger`.
            When set, every job is resubmitted with ``ledger=True`` so
            the workers trace themselves, and the gather step splices
            the shipped per-cell segments into this ledger *in cell
            submission order* — followed by per-cell wall/status events
            and certificate-verdict artifacts emitted by the gather
            itself.  Both backends run the same job code path, so the
            spliced event order (``kind``/``name``/``cell_id``) is
            backend-independent.
        progress: when true, a heartbeat thread keeps a live status
            line (cells done/total, elapsed, ETA, stall flag) on the
            progress stream while the sweep runs.  The line goes to
            **stderr** (or the injected stream) only — stdout stays
            machine-readable under ``--jobs N``.
        heartbeat_interval: seconds between heartbeat ticks when
            ``progress`` is enabled; nonpositive disables the thread
            (cell lifecycle events still reach the ledger).
        stall_after: quiet period (seconds without a completion) after
            which the status line flags the sweep as stalled.
        progress_stream: status-line destination; defaults to stderr.
            Injectable so tests capture the line without a tty.
        worldlog: optional :class:`~repro.worldlog.store.WorldLog` the
            sweep records itself into.  A fresh log receives one
            ``sweep.plan`` record (the full job matrix) up front, one
            terminal ``cell.result`` / ``cell.error`` record per cell
            *as it completes* (write-through: each record is on disk
            before the next cell is consumed), and a ``gather.start``
            marker before the ledger splice.  A **resumed** log
            (:meth:`WorldLog.resume`) makes the scheduler skip every
            cell whose terminal record is already present — the
            recorded job result is replayed through the normal gather
            path (certificate re-verification included), so the final
            report, certificates and spliced event order are
            bit-identical to an uninterrupted run.  The plan recorded
            in a resumed log must match the submitted matrix.
        telemetry: optional :class:`~repro.obs.telemetry.TelemetryBus`
            sampled from the main thread as cells complete.  The
            sweep's progress tracker is attached to it, so snapshots
            carry live done/total/ETA accounting.  Snapshots are
            observability-only records: resume, the differ and every
            derived view ignore them.

    Whether or not ``progress`` is on, a carried ledger receives three
    deterministic lifecycle events per cell — ``cell.start``, a
    ``cell.heartbeat`` counter (value = ticks observed; wall-clock
    telemetry, like ``cell.wall_seconds``) and ``cell.done`` — emitted
    at gather time in submission order, so the spliced event *order*
    stays backend-independent even though heartbeat counts differ run
    to run.
    """

    jobs: int = 1
    timeout: float | None = None
    ledger: "RunLedger | None" = None
    progress: bool = False
    heartbeat_interval: float = 1.0
    stall_after: float = 30.0
    progress_stream: Any = None
    worldlog: "WorldLog | None" = None
    telemetry: "TelemetryBus | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"need at least one worker, got {self.jobs}")

    @property
    def backend(self) -> str:
        """The backend this scheduler will use."""
        return SERIAL if self.jobs == 1 else PROCESS

    def run(self, jobs: Iterable[SweepJob]) -> SweepReport:
        """Execute every job and gather a :class:`SweepReport`.

        Cells appear in the report in submission order regardless of
        completion order; failures are per-cell, never sweep-aborting.
        """
        from repro.obs.ledger import cell_label

        job_list = list(jobs)
        if self.ledger is not None:
            job_list = [
                replace(job, ledger=True) for job in job_list
            ]
        recorded = self._plan_and_recall(job_list)
        tracker = SweepProgress(
            total=len(job_list),
            stream=self._stream() if self.progress else None,
            stall_after=self.stall_after,
            label=f"sweep[{self.backend}]",
        )
        if self.telemetry is not None:
            self.telemetry.attach_progress(tracker)
        interval = self.heartbeat_interval if self.progress else 0.0
        labels = [cell_label(job.key) for job in job_list]
        begin = time.perf_counter()
        with HeartbeatMonitor(tracker, interval=interval):
            if self.backend == SERIAL:
                cells = self._run_serial(
                    job_list, tracker, labels, recorded
                )
            else:
                cells = self._run_process(
                    job_list, tracker, labels, recorded
                )
        if self.progress:
            tracker.close()
        wall = time.perf_counter() - begin
        return self._gather(cells, wall, tracker)

    def _stream(self) -> Any:
        return (
            self.progress_stream
            if self.progress_stream is not None
            else default_progress_stream()
        )

    def _run_serial(
        self,
        job_list: Sequence[SweepJob],
        tracker: SweepProgress,
        labels: Sequence[str],
        recorded: dict[int, SweepCell],
    ) -> list[SweepCell]:
        cells: list[SweepCell] = []
        for index, job in enumerate(job_list):
            tracker.start(labels[index])
            if index in recorded:
                cells.append(recorded[index])
                tracker.note_done(labels[index])
                continue
            begin = time.perf_counter()
            try:
                result = execute_job(job)
            except Exception as exc:  # structured, not sweep-fatal
                cells.append(
                    SweepCell(
                        index=index,
                        key=job.key,
                        error=_error_from(exc),
                        wall_seconds=time.perf_counter() - begin,
                    )
                )
            else:
                cells.append(
                    SweepCell(
                        index=index,
                        key=job.key,
                        result=result,
                        wall_seconds=result.wall_seconds,
                    )
                )
            self._record_cell(cells[-1])
            tracker.note_done(labels[index])
        return cells

    def _run_process(
        self,
        job_list: Sequence[SweepJob],
        tracker: SweepProgress,
        labels: Sequence[str],
        recorded: dict[int, SweepCell],
    ) -> list[SweepCell]:
        cells: list[SweepCell] = []
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures: dict[int, Any] = {}
            for index, (label, job) in enumerate(
                zip(labels, job_list)
            ):
                tracker.start(label)
                if index in recorded:
                    # Terminal record already on disk: nothing to
                    # submit; the gather loop replays the record.
                    tracker.note_done(label)
                    continue
                future = pool.submit(execute_job, job)
                # Completion callbacks run on executor threads; the
                # tracker is lock-protected for exactly this.
                future.add_done_callback(
                    lambda _f, label=label: tracker.note_done(label)
                )
                futures[index] = future
            for index, job in enumerate(job_list):
                if index in recorded:
                    cells.append(recorded[index])
                    continue
                future = futures[index]
                begin = time.perf_counter()
                try:
                    result = future.result(timeout=self.timeout)
                except FutureTimeoutError:
                    future.cancel()
                    cells.append(
                        SweepCell(
                            index=index,
                            key=job.key,
                            error=CellError(
                                kind="timeout",
                                message=(
                                    f"cell exceeded the {self.timeout}s "
                                    "per-cell budget"
                                ),
                            ),
                            wall_seconds=time.perf_counter() - begin,
                        )
                    )
                except Exception as exc:
                    cells.append(self._recover(index, job, exc))
                else:
                    cells.append(
                        SweepCell(
                            index=index,
                            key=job.key,
                            result=result,
                            wall_seconds=result.wall_seconds,
                        )
                    )
                self._record_cell(cells[-1])
        return cells

    def _plan_and_recall(
        self, job_list: Sequence[SweepJob]
    ) -> dict[int, SweepCell]:
        """Record (or verify) the sweep plan; recall terminal records.

        On a fresh world log, appends the ``sweep.plan`` record.  On a
        resumed log, verifies the recorded plan matches the submitted
        matrix and rebuilds a :class:`SweepCell` per cell whose
        terminal ``cell.result`` / ``cell.error`` record survived —
        those cells are skipped by the run loops and replayed through
        the normal gather path.
        """
        if self.worldlog is None:
            return {}
        from repro.worldlog.codec import encode_job
        from repro.worldlog.resume import (
            check_plan,
            completed_results,
            has_plan,
            recorded_errors,
        )

        records = self.worldlog.records
        if has_plan(records):
            check_plan(records, list(job_list))
        else:
            self.worldlog.append(
                "sweep.plan",
                {"jobs": [encode_job(job) for job in job_list]},
            )
        recalled: dict[int, SweepCell] = {}
        for index, result in completed_results(records).items():
            if 0 <= index < len(job_list):
                recalled[index] = SweepCell(
                    index=index,
                    key=job_list[index].key,
                    result=result,
                    wall_seconds=result.wall_seconds,
                )
        for index, (error, wall) in recorded_errors(records).items():
            if 0 <= index < len(job_list):
                recalled[index] = SweepCell(
                    index=index,
                    key=job_list[index].key,
                    error=error,
                    wall_seconds=wall,
                )
        return recalled

    def _record_cell(self, cell: SweepCell) -> None:
        """Append a cell's terminal record, write-through, as it lands."""
        if self.worldlog is None:
            return
        from repro.obs.ledger import cell_label
        from repro.worldlog.codec import encode_job_result

        label = cell_label(cell.key)
        if cell.result is not None:
            self.worldlog.append(
                "cell.result",
                {
                    "index": cell.index,
                    "result": encode_job_result(cell.result),
                },
                cell_id=label,
            )
        else:
            assert cell.error is not None
            self.worldlog.append(
                "cell.error",
                {
                    "index": cell.index,
                    "key": list(cell.key),
                    "error_kind": cell.error.kind,
                    "message": cell.error.message,
                    "detail": cell.error.detail,
                    "wall_seconds": cell.wall_seconds,
                },
                cell_id=label,
            )
        if self.telemetry is not None:
            # Pump from the cell-consume loop: the main thread owns the
            # world log, so the heartbeat thread never appends.
            self.telemetry.maybe_sample()

    def _recover(
        self, index: int, job: SweepJob, exc: BaseException
    ) -> SweepCell:
        """Handle a failed future; retry in-process if the pool died.

        A worker that raised an ordinary exception is a per-cell failure.
        A *dead worker process* (``BrokenProcessPool``) poisons every
        pending future in the pool, so the affected cell is retried
        in-process — the other cells must not pay for one crash.
        """
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            return SweepCell(
                index=index, key=job.key, error=_error_from(exc)
            )
        begin = time.perf_counter()
        try:
            result = execute_job(job)
        except Exception as retry_exc:
            return SweepCell(
                index=index,
                key=job.key,
                error=_error_from(retry_exc, kind="broken-pool"),
                wall_seconds=time.perf_counter() - begin,
            )
        return SweepCell(
            index=index,
            key=job.key,
            result=result,
            wall_seconds=result.wall_seconds,
        )

    def _gather(
        self,
        cells: Sequence[SweepCell],
        wall: float,
        tracker: SweepProgress,
    ) -> SweepReport:
        """Merge per-worker counters into the aggregate report.

        Uses ``ExecutionCache.merge_stats`` so the sweep-level cache
        accounting goes through the same counters-only contract the
        per-driver caches use (entries and checkpointers never cross
        process boundaries).  Cells that shipped an attack certificate
        are re-verified here — by the standalone
        :func:`repro.certify.verifier.verify_certificate`, against the
        exact bytes that crossed the process boundary — and a rejected
        certificate turns its cell into a ``"certificate"`` error: the
        sweep never reports an outcome whose evidence does not check.

        When the scheduler carries a sweep ledger, each cell's shipped
        event segment is spliced here (cell order), followed by the
        gather's own per-cell events.
        """
        cells = [self._verify_cell(cell) for cell in cells]
        if self.worldlog is not None:
            # Marks the gather boundary: the derived ledger view keeps
            # only ledger events after the *last* gather.start, so a
            # crash mid-gather followed by a resume cannot duplicate
            # spliced events.
            self.worldlog.append("gather.start", {"cells": len(cells)})
        self._splice_ledger(cells, tracker)
        merged = ExecutionCache()
        rounds_simulated = 0
        rounds_baseline = 0
        certificates_verified = 0
        for cell in cells:
            if cell.result is None:
                continue
            if cell.result.cache is not None:
                merged.merge_stats(cell.result.cache)
            rounds_simulated += cell.result.rounds_simulated
            rounds_baseline += cell.result.rounds_baseline
            if cell.result.certificate is not None:
                certificates_verified += 1
        return SweepReport(
            backend=self.backend,
            jobs=self.jobs,
            cells=tuple(cells),
            wall_seconds=wall,
            cache=CacheStats(
                hits=merged.hits,
                alias_hits=merged.alias_hits,
                misses=merged.misses,
            ),
            rounds_simulated=rounds_simulated,
            rounds_baseline=rounds_baseline,
            certificates_verified=certificates_verified,
        )

    def _splice_ledger(
        self, cells: Sequence[SweepCell], tracker: SweepProgress
    ) -> None:
        """Fold every cell's telemetry into the sweep ledger, in order.

        For each cell (submission order): a ``cell.start`` marker, then
        the worker's shipped event segment — run ids rewritten to the
        sweep's, worker ids and timestamps preserved — then the
        gather's own view of the cell (heartbeat count, wall-clock
        gauge, error counter or certificate-verdict artifact) closed by
        ``cell.done``.  Lifecycle events are serialized here rather
        than live from the monitor thread so the spliced event *order*
        is identical across backends; only the heartbeat/wall *values*
        are wall-clock telemetry.  Certificate verdicts are emitted
        here, not in the worker, because acceptance is decided by the
        gather step's independent verifier.
        """
        from repro.obs.ledger import cell_label

        if self.ledger is None:
            return
        for cell in cells:
            label = cell_label(cell.key)
            self.ledger.emit(
                "counter", "cell.start", value=1, cell_id=label
            )
            if cell.result is not None and cell.result.events:
                self.ledger.splice(cell.result.events)
            self.ledger.emit(
                "counter",
                "cell.heartbeat",
                value=tracker.heartbeats.get(label, 0),
                cell_id=label,
            )
            self.ledger.emit(
                "gauge",
                "cell.wall_seconds",
                value=cell.wall_seconds,
                cell_id=label,
            )
            if cell.error is not None:
                self.ledger.emit(
                    "counter",
                    "cell.error",
                    value=1,
                    cell_id=label,
                    error_kind=cell.error.kind,
                    message=cell.error.message,
                )
            if cell.result is not None and (
                cell.result.certificate is not None
            ):
                self.ledger.emit(
                    "artifact",
                    "certificate",
                    value=f"certificate:{label}",
                    cell_id=label,
                    verdict="ok",
                    size_bytes=len(cell.result.certificate),
                )
            elif cell.error is not None and (
                cell.error.kind == "certificate"
            ):
                self.ledger.emit(
                    "artifact",
                    "certificate",
                    value=f"certificate:{label}",
                    cell_id=label,
                    verdict="rejected",
                )
            self.ledger.emit(
                "counter",
                "cell.done",
                value=1,
                cell_id=label,
                status="ok" if cell.ok else "error",
            )

    @staticmethod
    def _verify_cell(cell: SweepCell) -> SweepCell:
        """Independently verify a cell's shipped certificate, if any."""
        from repro.certify.verifier import verify_certificate

        if cell.result is None or cell.result.certificate is None:
            return cell
        report = verify_certificate(cell.result.certificate)
        if report.ok:
            return cell
        assert report.first is not None
        return SweepCell(
            index=cell.index,
            key=cell.key,
            error=CellError(
                kind="certificate",
                message=(
                    "shipped certificate rejected; first violated "
                    f"condition: {report.first.condition}"
                ),
                detail=report.render(),
            ),
            wall_seconds=cell.wall_seconds,
        )
