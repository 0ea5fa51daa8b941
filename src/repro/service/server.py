"""The attack job server: many tenants, one world log, one queue.

:class:`JobServer` listens on a unix socket, accepts jobs from many
concurrent clients, runs them on a worker pool and records *everything*
that matters in the world log:

* ``job.submitted`` — the acceptance record: idempotent key, tenant,
  priority and the encoded spec.  Written once per key, ever.
* ``job.start`` — one marker per execution *attempt* (a job killed
  mid-run and re-run after restart has two).
* ``job.result`` / ``job.error`` — the terminal record.  **Exactly one
  per accepted key**, even across restarts: a restart only re-queues
  jobs with no terminal record, and an idempotent re-submission of a
  terminal key is answered from the log without running anything.
* ``job.rejected`` — a quota/rate rejection at admission time, recorded
  for post-hoc per-tenant accounting (``repro log stats``).  It enters
  no queue and is invisible to recovery and the jobs manifest.

Crash-resume is the one job contract the sweep scheduler shares: the
log is the queue.  ``JobServer`` on an existing log resumes it
(:meth:`~repro.worldlog.store.WorldLog.resume`), folds its records
once (:func:`~repro.service.queue.recover_jobs`) and continues —
queued jobs still queued, died-mid-run jobs re-queued, finished jobs
answerable, a sweep's recorded jobs included.  Nothing outside the
log is consulted, so a SIGKILL at any record boundary loses at most
the in-flight attempt, never a result.

Determinism: a job's ledger events ship *inside* its ``job.result``
payload (the :func:`~repro.worldlog.codec.encode_job_result` envelope),
never as separate records — the terminal record is the atomic unit, so
an interrupted-and-resumed run's per-key values, certificates and event
order signatures are bit-identical to an uninterrupted run's.  Both
terminal records are built by
:func:`~repro.worldlog.codec.terminal_record`, as the sweep
scheduler's are.

Live state is the replay fold: the server keeps the
:class:`~repro.worldlog.replay.ReplayState` recovery returned, applies
every record it appends to it, and answers every request from it; the
run order (:attr:`~repro.worldlog.replay.ReplayState.queued_jobs`) and
the per-tenant pending counts are views of it.  Beside it sit only what
the log does not hold: the watchers, the executor, the running jobs'
start clocks and the quota token buckets.

Threading model: the fold, quota and log all live on the
event-loop thread.  Only :func:`~repro.parallel.jobs.execute_job`
leaves it — to a ``ThreadPoolExecutor`` (``jobs=1``; in-process, no
pickling) or a ``ProcessPoolExecutor`` (``jobs>1``; the sweep
scheduler's pool type), both driving the same job kernel.  A job that
raises comes back as its ``job.error`` body, built where the job ran,
so ``jobs=1`` and ``jobs>1`` record the same ``message`` and
``detail``.  The server keeps its own executor, not the scheduler's
gather loop, because its event loop must never block on a job.  A
worker process that dies breaks its pool; the server replaces the pool
and re-runs each job the break failed once, recording ``error_kind``
``"broken-pool"`` only when the re-run dies too.
:meth:`JobServer.request_shutdown` and the ``ready`` event are the
thread-safe control surface the CLI and tests use.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
import signal
import threading
import time
from collections import Counter
from typing import Any

from repro.errors import ArtifactError, ReproError
from repro.obs.ledger import job_label
from repro.parallel.jobs import execute_job
from repro.service.protocol import (
    SERVICE_SCHEMA,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    job_key,
    parse_request,
)
from repro.service.queue import recorded_jobs, recover_jobs
from repro.service.quota import QuotaPolicy
from repro.worldlog.codec import (
    decode_job,
    encode_job,
    encode_job_error,
    terminal_record,
)
from repro.worldlog.record import Record
from repro.worldlog.replay import ReplayState
from repro.worldlog.store import WorldLog

TERMINAL_KINDS = ("job.result", "job.error")
"""The record kinds that end a job's lifecycle."""


class JobServer:
    """One serving process: socket in, world-log records out.

    Args:
        log_path: the world log (created fresh, or resumed if it
            already exists — that is the whole restart story).
        socket_path: the unix socket to listen on (stale files are
            replaced).  Beware the OS's ~100-byte socket path limit.
        jobs: worker parallelism; ``1`` keeps execution in-process.
        quota: the per-tenant admission policy.
        run_id: correlation id for a fresh log (random when omitted).
    """

    def __init__(
        self,
        log_path: str,
        socket_path: str,
        jobs: int = 1,
        quota: QuotaPolicy | None = None,
        run_id: str | None = None,
    ) -> None:
        self.log_path = log_path
        self.socket_path = socket_path
        if jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")
        self.jobs = jobs
        self.quota = QuotaPolicy() if quota is None else quota
        self._run_id = run_id
        self.ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._cond: asyncio.Condition | None = None
        self._log: WorldLog | None = None
        self._state = ReplayState()
        self._running: dict[str, float] = {}  # key -> start clock
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._executor: concurrent.futures.Executor | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the server until :meth:`request_shutdown` (blocking)."""
        asyncio.run(self._main())

    def request_shutdown(self) -> None:
        """Stop accepting work and exit once in-flight jobs finish.

        Thread-safe; also wired to SIGTERM/SIGINT inside the loop.
        Queued jobs are *not* run — they stay in the log for the next
        server on the same path.
        """
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._signal_stop)

    def _signal_stop(self) -> None:
        assert self._stopping is not None and self._cond is not None
        self._stopping.set()

        async def _wake() -> None:
            async with self._cond:
                self._cond.notify_all()

        asyncio.ensure_future(_wake())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._cond = asyncio.Condition()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(
                NotImplementedError, RuntimeError
            ):
                self._loop.add_signal_handler(signum, self._signal_stop)

        if os.path.exists(self.log_path):
            self._log = WorldLog.resume(self.log_path)
        else:
            self._log = WorldLog.create(self.log_path, run_id=self._run_id)
        try:
            records = self._log.records
            self._state = recover_jobs(records, self.log_path)
            recorded_jobs(records, self.log_path)  # every spec decodes
        except ArtifactError:
            self._log.close()
            raise

        self._executor = self._new_executor()

        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )
        workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.jobs)
        ]
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            await asyncio.gather(*workers, return_exceptions=True)
            self._executor.shutdown(wait=True)
            self._log.close()
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
            self.ready.clear()

    # ------------------------------------------------------------------
    # the fold (event-loop thread only)
    # ------------------------------------------------------------------

    def _pending_by_tenant(self) -> Counter[str]:
        """Non-terminal jobs per tenant: the pending-quota input."""
        jobs = self._state.jobs
        return Counter(
            jobs[key]["tenant"] for key in self._state.pending_jobs
        )

    def _append(
        self, kind: str, payload: dict[str, Any], cell_id: str | None
    ) -> None:
        assert self._log is not None
        record = self._log.append(kind, payload, cell_id=cell_id)
        self._state.apply(record)
        self._publish(payload["key"], record)

    def _publish(self, key: str, record: Record) -> None:
        for queue in self._watchers.get(key, ()):  # live watchers
            queue.put_nowait(record)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------

    def _new_executor(self) -> concurrent.futures.Executor:
        if self.jobs == 1:
            return concurrent.futures.ThreadPoolExecutor(max_workers=1)
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)

    async def _execute(self, job: Any) -> Any:
        """Run ``job`` on the current pool.

        A worker process that dies breaks its whole pool: every job
        running or submitted there fails with ``BrokenProcessPool``.
        The first job to see that replaces the pool (the others find it
        replaced already), then the error propagates.
        """
        assert self._loop is not None and self._executor is not None
        executor = self._executor
        try:
            return await self._loop.run_in_executor(
                executor, execute_job, job
            )
        except concurrent.futures.BrokenExecutor:
            if self._executor is executor:
                executor.shutdown(wait=False)
                self._executor = self._new_executor()
            raise

    async def _worker(self) -> None:
        assert self._cond is not None and self._stopping is not None
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._state.queued_jobs
                    or self._stopping.is_set()
                )
                if self._stopping.is_set():
                    return
                # Pick and start with no await between: once its
                # job.start is folded, no other worker can pick the key.
                key = self._state.queued_jobs[0]
                job = decode_job(self._state.jobs[key]["job"])
                cell_id = job_label(job.key, key)
                self._append("job.start", {"key": key}, cell_id)
                self._running[key] = time.perf_counter()
            await self._run_job(key, job, cell_id)

    async def _run_job(self, key: str, job: Any, cell_id: str) -> None:
        """Run ``job`` and append its terminal record.

        A job that raises comes back from ``execute_job`` as its
        ``job.error`` body, so the one failure caught here is a dead
        worker's.
        """
        begin = self._running[key]
        try:
            try:
                outcome = await self._execute(job)
            except concurrent.futures.BrokenExecutor:
                # A dead worker, not necessarily this job's: re-run it
                # once on the fresh pool.
                outcome = await self._execute(job)
        except concurrent.futures.BrokenExecutor as exc:
            outcome = encode_job_error(
                "broken-pool", exc, time.perf_counter() - begin
            )
        kind, payload = terminal_record(key, outcome)
        self._append(kind, payload, cell_id)
        self._running.pop(key, None)

    # ------------------------------------------------------------------
    # protocol handlers
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                frame = decode_frame(line)
                op = parse_request(frame)
            except ProtocolError as exc:
                await self._send(
                    writer, error_frame("protocol", str(exc))
                )
                return
            handler = getattr(self, f"_op_{op}")
            await handler(frame, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-stream; nothing to unwind
        finally:
            with contextlib.suppress(OSError):
                writer.close()
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        writer.write(encode_frame(payload))
        await writer.drain()

    async def _op_ping(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self._log is not None
        await self._send(
            writer,
            {
                "ok": True,
                "schema": SERVICE_SCHEMA,
                "run_id": self._log.run_id,
                "jobs": self.jobs,
                "backend": "thread" if self.jobs == 1 else "process",
                "queued": len(self._state.queued_jobs),
                "pending": len(self._state.pending_jobs),
                "completed": len(self._state.terminals),
            },
        )

    def _status_body(self) -> dict[str, Any]:
        """The live-state fold the ``status`` RPC answers.

        Event-loop thread only (it reads the fold, quota and
        running-job state).  Everything here is a *view* — nothing is
        charged or mutated beyond the quota clock refill.
        """
        now = time.perf_counter()
        jobs = self._state.jobs
        queued = self._state.queued_jobs
        # in run order, so the highest priority comes first
        by_priority = Counter(jobs[key]["priority"] for key in queued)
        pending_by_tenant = self._pending_by_tenant()
        tenants: dict[str, Any] = {}
        names = set(pending_by_tenant) | set(self.quota.known_tenants())
        for tenant in sorted(names):
            pending = pending_by_tenant[tenant]
            bucket = self.quota.occupancy(tenant)
            tenants[tenant] = {
                "pending": pending,
                "max_pending": self.quota.max_pending,
                "quota_occupancy": pending / self.quota.max_pending,
                "rate_tokens": bucket["tokens"],
                "burst": bucket["burst"],
            }
        running = [
            {
                "key": key,
                "tenant": jobs[key]["tenant"],
                "priority": jobs[key]["priority"],
                "seconds": now - began,
            }
            for key, began in sorted(self._running.items())
        ]
        return {
            "workers": {
                "total": self.jobs,
                "busy": len(self._running),
                "utilization": len(self._running) / self.jobs,
            },
            "queue": {
                "depth": len(queued),
                "by_priority": dict(by_priority),
            },
            "tenants": tenants,
            "jobs": {
                "queued": len(queued),
                "running": running,
                "completed": len(self._state.terminals),
            },
        }

    async def _op_status(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self._log is not None
        await self._send(
            writer,
            {
                "ok": True,
                "schema": SERVICE_SCHEMA,
                "run_id": self._log.run_id,
                **self._status_body(),
            },
        )

    async def _op_submit(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        assert self._cond is not None
        tenant = frame.get("tenant", "default")
        priority = frame.get("priority", 0)
        wait = frame.get("wait", False)
        spec = frame.get("job")
        try:
            for name, value, expected, what in (
                ("tenant", tenant, str, "a string"),
                ("priority", priority, int, "an integer"),
                ("wait", wait, bool, "a boolean"),
            ):
                # exact types: JSON's true is a bool, not a priority
                if type(value) is not expected:
                    raise ReproError(
                        f"submit frame's {name} must be {what}, "
                        f"got {value!r}"
                    )
            if not isinstance(spec, dict):
                raise ReproError("submit frame has no job object")
            job = decode_job(spec)
            spec = encode_job(job)  # canonical field order for the key
        except (ReproError, KeyError, TypeError) as exc:
            await self._send(writer, error_frame("bad-job", str(exc)))
            return
        key = job_key(spec)

        record = self._state.terminals.get(key)
        if record is not None:
            # Idempotent replay: no quota charge, no record, no work.
            response = {
                "ok": True,
                "key": key,
                "state": (
                    "done" if record.kind == "job.result" else "failed"
                ),
                "cached": True,
            }
            if wait:
                response["final"] = True
                response["record"] = record.envelope()
            await self._send(writer, response)
            return
        accepted = self._state.jobs.get(key)
        if accepted is not None:
            # Idempotent join: the job is already queued or running.
            await self._send(
                writer,
                {
                    "ok": True,
                    "key": key,
                    "state": accepted["state"],
                    "cached": True,
                },
            )
            if wait:
                await self._stream_job(key, writer, replay=False)
            return

        decision = self.quota.admit(
            tenant, pending=self._pending_by_tenant()[tenant]
        )
        if not decision.allowed:
            # Observability only: the rejection enters no queue and
            # charges no quota, but it is recorded so post-hoc tooling
            # (``repro log stats``) can count rejections per tenant.
            # The recovery fold and the jobs manifest both ignore it.
            self._append(
                "job.rejected",
                {
                    "key": key,
                    "tenant": tenant,
                    "kind": decision.kind,
                    "reason": decision.reason,
                },
                job_label(job.key, key),
            )
            await self._send(
                writer, error_frame(decision.kind, decision.reason)
            )
            return

        self._append(
            "job.submitted",
            {
                "key": key,
                "tenant": tenant,
                "priority": priority,
                "job": spec,
            },
            job_label(job.key, key),
        )
        async with self._cond:
            self._cond.notify()
        await self._send(
            writer,
            {"ok": True, "key": key, "state": "queued", "cached": False},
        )
        if wait:
            await self._stream_job(key, writer, replay=False)

    async def _op_jobs(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        await self._send(writer, {"ok": True, **self._state.manifest()})

    async def _op_watch(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        key = frame.get("key")
        if not isinstance(key, str) or not (
            key in self._state.jobs or key in self._state.terminals
        ):
            await self._send(
                writer,
                error_frame("unknown-key", f"no job with key {key!r}"),
            )
            return
        await self._send(writer, {"ok": True, "key": key})
        await self._stream_job(key, writer, replay=True)

    async def _op_shutdown(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        await self._send(writer, {"ok": True, "stopping": True})
        self._signal_stop()

    async def _stream_job(
        self, key: str, writer: asyncio.StreamWriter, replay: bool
    ) -> None:
        """Stream the job's records to ``writer`` until its terminal.

        With ``replay`` the already-logged records (the fold's
        ``job_records`` of the key) come first, so a watcher always sees
        the full lifecycle; the subscription is registered *before* the
        replay snapshot is taken, so no record can fall in the gap
        (duplicates are filtered by tick).
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(key, []).append(queue)
        try:
            seen_tick = -1
            if replay:
                for record in list(self._state.job_records.get(key, ())):
                    seen_tick = record.tick
                    if await self._emit_record(writer, key, record):
                        return
            terminal = self._state.terminals.get(key)
            if terminal is not None:
                # The job went terminal before we subscribed (or the
                # caller skipped the replay): the recorded terminal is
                # the stream's final frame.
                if terminal.tick > seen_tick:
                    await self._emit_record(writer, key, terminal)
                return
            while True:
                record = await queue.get()
                if record.tick <= seen_tick:
                    continue
                if await self._emit_record(writer, key, record):
                    return
        finally:
            self._watchers[key].remove(queue)
            if not self._watchers[key]:
                del self._watchers[key]

    async def _emit_record(
        self, writer: asyncio.StreamWriter, key: str, record: Record
    ) -> bool:
        """Send one stream frame; ``True`` when it was the terminal."""
        final = record.kind in TERMINAL_KINDS
        await self._send(
            writer,
            {
                "ok": True,
                "key": key,
                "record": record.envelope(),
                "final": final,
            },
        )
        return final
