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

:class:`SweepScheduler` has one gather loop for every worker count.
With ``jobs>1`` a :class:`concurrent.futures.ProcessPoolExecutor`
exists only to run the cells ahead of the loop: every cell is submitted
up front, and the loop takes each cell's result from its future.  With
``jobs=1`` (the default) there is no pool, and the loop runs each cell
in-process with :func:`~repro.parallel.jobs.execute_job` (backend
``"serial"``; ``"process"`` with a pool).  Either way results are
*gathered in deterministic cell order* regardless of completion order,
a job that raises is a structured per-cell :class:`CellError` without
aborting the other cells (``execute_job`` turns the exception into the
cell's ``job.error`` body where the job ran, so a failure records the
same payload for every worker count), and per-worker cache counters are
summed into one aggregate with ``CacheStats.merged``.  A worker process
that dies breaks the pool: each cell it poisons is re-run inline.
Leaving the loop by an exception (a world-log append that fails, an
interrupt) cancels every cell the pool has not started.

The gathered :class:`SweepReport` carries per-cell wall times, merged
cache accounting (hits / alias hits / misses), aggregate engine round
counters and any per-cell errors — the sweep-level analogue of
:class:`~repro.lowerbound.driver.AttackOutcome`'s engine counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Sequence

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
    from repro.worldlog.store import WorldLog

SERIAL = "serial"
PROCESS = "process"


@dataclass(frozen=True)
class CellError:
    """A structured per-cell failure record.

    Attributes:
        kind: ``"exception"`` (the job raised, inline, in a worker or
            in the inline re-run of a cell whose worker died) or
            ``"certificate"`` (the cell's shipped attack certificate
            failed the gather step's independent verification).  A
            recalled ``job.error`` a job server wrote may also carry
            ``"broken-pool"``.
        message: the one-line failure description.
        detail: the formatted traceback, when there is one.
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


def _error_cell(
    index: int, key: tuple[str, str, int, int], payload: dict[str, Any]
) -> SweepCell:
    """The errored cell a ``job.error`` payload describes."""
    return SweepCell(
        index=index,
        key=key,
        error=CellError(
            kind=payload["error_kind"],
            message=payload["message"],
            detail=payload.get("detail", ""),
        ),
        wall_seconds=payload.get("wall_seconds", 0.0),
    )


def _pooled_outcome(
    future: Any, job: SweepJob
) -> JobResult | dict[str, Any]:
    """A pooled cell's outcome.

    A dead worker process (``BrokenProcessPool``) poisons every pending
    future in the pool, so the cell is re-run inline: the other cells
    must not pay for one crash.
    """
    from concurrent.futures import BrokenExecutor

    try:
        return future.result()
    except BrokenExecutor:
        return execute_job(job)


def _reuse(
    index: int,
    recalled: dict[int, SweepCell | int],
    cells: Sequence[SweepCell],
) -> SweepCell:
    """The recalled cell at ``index``, or a copy of its earlier twin."""
    hit = recalled[index]
    if isinstance(hit, int):
        return replace(cells[hit], index=index)
    return hit


@dataclass
class SweepScheduler:
    """Shards a job matrix across workers and gathers deterministically.

    Attributes:
        jobs: worker count; ``1`` runs every cell in-process, ``> 1``
            runs them ahead of the gather loop in a process pool of
            that many workers.
        ledger: optional sweep :class:`~repro.obs.ledger.RunLedger`.
            When set, every job is resubmitted with ``ledger=True`` so
            the workers trace themselves, and the gather step splices
            the shipped per-cell segments into this ledger *in cell
            submission order* — followed by per-cell wall/status events
            and certificate-verdict artifacts emitted by the gather
            itself.  Every worker count runs the same job code path, so
            the spliced event order (``kind``/``name``/``cell_id``) is
            the same however many workers ran the sweep.
        progress: when true, a heartbeat thread keeps a live status
            line (cells done/total, elapsed, ETA, stall flag) on the
            progress stream while the sweep runs.  The line goes to
            **stderr** (or the injected stream) only — stdout stays
            machine-readable under ``--jobs N``.
        heartbeat_interval: seconds between status-line repaints
            when ``progress`` is enabled; nonpositive disables the
            thread (cell lifecycle events still reach the ledger).
        stall_after: quiet period (seconds without a completion) after
            which the status line flags the sweep as stalled.
        progress_stream: status-line destination; defaults to stderr.
            Injectable so tests capture the line without a tty.
        worldlog: optional :class:`~repro.worldlog.store.WorldLog` the
            sweep records itself into as the attack service's jobs: a
            ``job.submitted`` per new spec-hash key before any job
            runs, one terminal ``job.result`` / ``job.error`` per key
            as its cell lands (write-through), and a ``gather.start``
            marker before the ledger splice; never a ``job.start``,
            whose position would depend on scheduling.  On a resumed
            log (:meth:`WorldLog.resume`) every cell whose key has a
            terminal record (:func:`~repro.service.queue.recover_jobs`)
            is recalled, not run, and replayed through the normal
            gather path, so the report, certificates and spliced event
            order are bit-identical to an uninterrupted run.  Keys name
            specs, not positions: a different matrix recalls the keys
            it shares, and a repeated spec runs once.

    Whether or not ``progress`` is on, a carried ledger receives the
    deterministic lifecycle events ``cell.start`` and ``cell.done`` for
    every cell, emitted at gather time in submission order, so the
    spliced event *order* is the same for every worker count.
    """

    jobs: int = 1
    ledger: "RunLedger | None" = None
    progress: bool = False
    heartbeat_interval: float = 1.0
    stall_after: float = 30.0
    progress_stream: Any = None
    worldlog: "WorldLog | None" = None

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
        keys, recalled = self._plan_and_recall(job_list)
        tracker = SweepProgress(
            total=len(job_list),
            stream=self._stream() if self.progress else None,
            stall_after=self.stall_after,
            label=f"sweep[{self.backend}]",
        )
        interval = self.heartbeat_interval if self.progress else 0.0
        labels = [cell_label(job.key) for job in job_list]
        begin = time.perf_counter()
        with HeartbeatMonitor(tracker, interval=interval):
            cells = self._run_cells(
                job_list, tracker, labels, keys, recalled
            )
        if self.progress:
            tracker.close()
        wall = time.perf_counter() - begin
        return self._gather(cells, wall)

    def _stream(self) -> Any:
        return (
            self.progress_stream
            if self.progress_stream is not None
            else default_progress_stream()
        )

    def _run_cells(
        self,
        job_list: Sequence[SweepJob],
        tracker: SweepProgress,
        labels: Sequence[str],
        keys: Sequence[str],
        recalled: dict[int, SweepCell | int],
    ) -> list[SweepCell]:
        """The gather loop: every cell in submission order.

        A recalled cell is reused; any other cell's result comes from
        its future when there is a pool, or from running it inline.
        Each cell's terminal job record is written as the loop reaches
        it.
        """
        pool = None
        futures: dict[int, Any] = {}
        cells: list[SweepCell] = []
        try:
            if self.jobs > 1:
                # Imported here so an in-process sweep never loads
                # multiprocessing.
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=self.jobs)
                for index, job in enumerate(job_list):
                    if index in recalled:
                        continue
                    label = labels[index]
                    tracker.start(label)
                    futures[index] = pool.submit(execute_job, job)
                    # Completion callbacks run on executor threads; the
                    # tracker is lock-protected for exactly this.
                    futures[index].add_done_callback(
                        lambda _f, label=label: tracker.note_done(label)
                    )
            for index, job in enumerate(job_list):
                label = labels[index]
                future = futures.get(index)
                if future is None:
                    tracker.start(label)
                if index in recalled:
                    # The key is already answered: a terminal record on
                    # disk, or an earlier cell with the same spec.
                    cells.append(_reuse(index, recalled, cells))
                else:
                    outcome = (
                        execute_job(job)
                        if future is None
                        else _pooled_outcome(future, job)
                    )
                    cells.append(
                        self._record_cell(index, job, outcome, keys[index])
                    )
                if future is None:
                    tracker.note_done(label)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        return cells

    def _plan_and_recall(
        self, job_list: Sequence[SweepJob]
    ) -> tuple[list[str], dict[int, SweepCell | int]]:
        """Submit the matrix as jobs (tenant ``sweep``, priority 0).

        Returns ``(keys, recalled)``: each cell's job key, and per
        cell whose key is answered either the cell rebuilt from its
        terminal record or the index of an earlier cell with the same
        spec.  Without a world log nothing is recalled, and every key
        is ``""``.
        """
        if self.worldlog is None:
            return [""] * len(job_list), {}
        from repro.obs.ledger import cell_label
        from repro.service.protocol import job_key
        from repro.service.queue import decode_recorded, recover_jobs
        from repro.worldlog.codec import decode_job_result, encode_job

        log = self.worldlog
        recovered = recover_jobs(log.records, log.path)
        keys: list[str] = []
        first: dict[str, int] = {}
        recalled: dict[int, SweepCell | int] = {}
        for index, job in enumerate(job_list):
            spec = encode_job(job)
            key = job_key(spec)
            keys.append(key)
            if key in first:
                recalled[index] = first[key]
                continue
            first[key] = index
            record = recovered.terminals.get(key)
            if record is None:
                if key not in recovered.jobs:
                    log.append(
                        "job.submitted",
                        {
                            "key": key,
                            "tenant": "sweep",
                            "priority": 0,
                            "job": spec,
                        },
                        cell_id=cell_label(job.key),
                    )
            elif record.kind == "job.result":
                result = decode_recorded(
                    record, "result", decode_job_result, log.path
                )
                recalled[index] = SweepCell(
                    index=index,
                    key=job.key,
                    result=result,
                    wall_seconds=result.wall_seconds,
                )
            else:
                recalled[index] = _error_cell(
                    index, job.key, record.payload
                )
        return keys, recalled

    def _record_cell(
        self,
        index: int,
        job: SweepJob,
        outcome: JobResult | dict[str, Any],
        key: str,
    ) -> SweepCell:
        """The cell a job's result or ``job.error`` payload makes, with
        its terminal job record appended write-through."""
        if isinstance(outcome, JobResult):
            cell = SweepCell(
                index=index,
                key=job.key,
                result=outcome,
                wall_seconds=outcome.wall_seconds,
            )
        else:
            cell = _error_cell(index, job.key, outcome)
        if self.worldlog is not None:
            from repro.obs.ledger import cell_label
            from repro.worldlog.codec import terminal_record

            kind, payload = terminal_record(key, outcome)
            self.worldlog.append(kind, payload, cell_id=cell_label(job.key))
        return cell

    def _gather(
        self, cells: Sequence[SweepCell], wall: float
    ) -> SweepReport:
        """Merge per-worker counters into the aggregate report.

        The sweep-level cache accounting is the ``CacheStats.merged``
        sum of the counters each cell shipped (entries and fork states
        never cross process boundaries).  Cells that shipped an attack
        certificate are re-verified here — by the standalone
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
        self._splice_ledger(cells)
        cache = CacheStats()
        rounds_simulated = 0
        rounds_baseline = 0
        certificates_verified = 0
        for cell in cells:
            if cell.result is None:
                continue
            if cell.result.cache is not None:
                cache = cache.merged(cell.result.cache)
            rounds_simulated += cell.result.rounds_simulated
            rounds_baseline += cell.result.rounds_baseline
            if cell.result.certificate is not None:
                certificates_verified += 1
        return SweepReport(
            backend=self.backend,
            jobs=self.jobs,
            cells=tuple(cells),
            wall_seconds=wall,
            cache=cache,
            rounds_simulated=rounds_simulated,
            rounds_baseline=rounds_baseline,
            certificates_verified=certificates_verified,
        )

    def _splice_ledger(self, cells: Sequence[SweepCell]) -> None:
        """Fold every cell's telemetry into the sweep ledger, in order.

        For each cell (submission order): a ``cell.start`` marker, then
        the worker's shipped event segment — run ids rewritten to the
        sweep's, worker ids and timestamps preserved — then the
        gather's own view of the cell (wall-clock gauge, error counter
        or certificate-verdict artifact) closed by ``cell.done``.
        Lifecycle events are serialized here rather than live as cells
        finish, so the spliced event *order* is identical for every
        worker count; only the wall *value* is wall-clock telemetry.
        Certificate verdicts are emitted here, not in the worker,
        because acceptance is decided by the gather step's independent
        verifier.
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
