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
(:meth:`~repro.worldlog.store.WorldLog.resume`), refolds the ``job.*``
records (:func:`~repro.service.queue.recover_jobs`) and continues —
queued jobs still queued, died-mid-run jobs re-queued, finished jobs
answerable, a sweep's recorded jobs included.  Nothing outside the
log is consulted, so a SIGKILL at any record boundary loses at most
the in-flight attempt, never a result.

Determinism: a job's ledger events ship *inside* its ``job.result``
payload (the :func:`~repro.worldlog.codec.encode_job_result` envelope),
never as separate records — the terminal record is the atomic unit, so
an interrupted-and-resumed run's per-key values, certificates and event
order signatures are bit-identical to an uninterrupted run's.

Threading model: all queue, quota and log state lives on the event-loop
thread.  Only :func:`~repro.parallel.jobs.execute_job` leaves it — to a
``ThreadPoolExecutor`` (``jobs=1``; in-process, no pickling) or a
``ProcessPoolExecutor`` (``jobs>1``; the scheduler's process backend),
both driving the same job kernel.  :meth:`JobServer.request_shutdown`
and the ``ready`` event are the thread-safe control surface the CLI and
tests use.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import signal
import threading
import time
import traceback
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
from repro.service.queue import (
    JobEntry,
    JobQueue,
    recorded_jobs,
    recover_jobs,
)
from repro.service.quota import QuotaPolicy
from repro.worldlog.codec import decode_job, encode_job, encode_job_result
from repro.worldlog.record import Record
from repro.worldlog.store import WorldLog
from repro.worldlog.views import jobs_manifest

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
        self._queue = JobQueue()
        self._entries: dict[str, JobEntry] = {}
        self._terminals: dict[str, Record] = {}
        self._pending: dict[str, int] = {}
        self._running: dict[str, dict[str, Any]] = {}
        self._watchers: dict[str, list[asyncio.Queue]] = {}

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
            pending, self._terminals = recover_jobs(records, self.log_path)
            recorded_jobs(records, self.log_path)  # every spec decodes
        except ArtifactError:
            self._log.close()
            raise
        for entry in pending:
            self._admit_entry(entry)

        if self.jobs == 1:
            executor: concurrent.futures.Executor = (
                concurrent.futures.ThreadPoolExecutor(max_workers=1)
            )
        else:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs
            )

        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path
        )
        workers = [
            asyncio.ensure_future(self._worker(executor))
            for _ in range(self.jobs)
        ]
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            await asyncio.gather(*workers, return_exceptions=True)
            executor.shutdown(wait=True)
            self._log.close()
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
            self.ready.clear()

    # ------------------------------------------------------------------
    # queue state (event-loop thread only)
    # ------------------------------------------------------------------

    def _admit_entry(self, entry: JobEntry) -> None:
        self._queue.push(entry)
        self._entries[entry.key] = entry
        self._pending[entry.tenant] = (
            self._pending.get(entry.tenant, 0) + 1
        )

    def _finish_entry(self, entry: JobEntry, record: Record) -> None:
        self._entries.pop(entry.key, None)
        self._terminals[entry.key] = record
        remaining = self._pending.get(entry.tenant, 1) - 1
        if remaining > 0:
            self._pending[entry.tenant] = remaining
        else:
            self._pending.pop(entry.tenant, None)

    def _append(
        self, kind: str, payload: dict[str, Any], cell_id: str | None
    ) -> Record:
        assert self._log is not None
        record = self._log.append(kind, payload, cell_id=cell_id)
        self._publish(payload["key"], record)
        return record

    def _publish(self, key: str, record: Record) -> None:
        for queue in self._watchers.get(key, ()):  # live watchers
            queue.put_nowait(record)

    def _entry_cell_id(self, entry: JobEntry) -> str:
        job = decode_job(entry.job)
        return job_label(job.key, entry.key)

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------

    async def _worker(
        self, executor: concurrent.futures.Executor
    ) -> None:
        assert self._cond is not None and self._stopping is not None
        while True:
            async with self._cond:
                while not len(self._queue) and not self._stopping.is_set():
                    await self._cond.wait()
                if self._stopping.is_set():
                    return
                entry = self._queue.pop()
            if entry is None:  # pragma: no cover - raced another worker
                continue
            await self._run_entry(executor, entry)

    async def _run_entry(
        self, executor: concurrent.futures.Executor, entry: JobEntry
    ) -> None:
        assert self._loop is not None
        cell_id = self._entry_cell_id(entry)
        self._append("job.start", {"key": entry.key}, cell_id)
        job = decode_job(entry.job)
        begin = time.perf_counter()
        self._running[entry.key] = {
            "tenant": entry.tenant,
            "priority": entry.priority,
            "began": begin,
        }
        try:
            result = await self._loop.run_in_executor(
                executor, execute_job, job
            )
        except BaseException as exc:
            record = self._append(
                "job.error",
                {
                    "key": entry.key,
                    "error_kind": "exception",
                    "message": f"{type(exc).__name__}: {exc}",
                    "detail": traceback.format_exc(),
                    "wall_seconds": time.perf_counter() - begin,
                },
                cell_id,
            )
        else:
            record = self._append(
                "job.result",
                {
                    "key": entry.key,
                    "result": encode_job_result(result),
                },
                cell_id,
            )
        self._running.pop(entry.key, None)
        self._finish_entry(entry, record)

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
                "queued": len(self._queue),
                "pending": len(self._entries),
                "completed": len(self._terminals),
            },
        )

    def _status_body(self) -> dict[str, Any]:
        """The live-state fold the ``status`` RPC answers.

        Event-loop thread only (it reads queue, quota and running-job
        state).  Everything here is a *view* — nothing is charged or
        mutated beyond the quota clock refill.
        """
        now = time.perf_counter()
        tenants: dict[str, Any] = {}
        names = set(self._pending) | set(self.quota.known_tenants())
        for tenant in sorted(names):
            pending = self._pending.get(tenant, 0)
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
                "tenant": info["tenant"],
                "priority": info["priority"],
                "seconds": now - info["began"],
            }
            for key, info in sorted(self._running.items())
        ]
        return {
            "workers": {
                "total": self.jobs,
                "busy": len(self._running),
                "utilization": len(self._running) / self.jobs,
            },
            "queue": {
                "depth": len(self._queue),
                "by_priority": self._queue.depth_by_priority(),
            },
            "tenants": tenants,
            "jobs": {
                "queued": len(self._queue),
                "running": running,
                "completed": len(self._terminals),
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

        if key in self._terminals:
            # Idempotent replay: no quota charge, no record, no work.
            record = self._terminals[key]
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
                response["record"] = json.loads(record.to_json())
            await self._send(writer, response)
            return
        if key in self._entries:
            # Idempotent join: the job is already queued or running.
            entry = self._entries[key]
            await self._send(
                writer,
                {
                    "ok": True,
                    "key": key,
                    "state": entry.state,
                    "cached": True,
                },
            )
            if wait:
                await self._stream_job(key, writer, replay=False)
            return

        decision = self.quota.admit(
            tenant, pending=self._pending.get(tenant, 0)
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

        entry = JobEntry(
            key=key, tenant=tenant, priority=priority, job=spec
        )
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
        self._admit_entry(entry)
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
        assert self._log is not None
        manifest = jobs_manifest(self._log.records)
        for entry_view in manifest["jobs"]:
            live = self._entries.get(entry_view["key"])
            if live is not None:
                # The log says "running" for a recovered-but-requeued
                # job; the live queue is the truth for non-terminal
                # states.
                entry_view["state"] = live.state
        await self._send(writer, {"ok": True, **manifest})

    async def _op_watch(
        self, frame: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        key = frame.get("key")
        if not isinstance(key, str) or not (
            key in self._entries or key in self._terminals
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

        With ``replay`` the already-logged records come first, so a
        watcher always sees the full lifecycle; the subscription is
        registered *before* the replay snapshot is taken, so no record
        can fall in the gap (duplicates are filtered by tick).
        """
        assert self._log is not None
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(key, []).append(queue)
        try:
            seen_tick = -1
            if replay:
                for record in list(self._log.records):
                    if (
                        record.kind.startswith("job.")
                        and record.payload.get("key") == key
                    ):
                        seen_tick = record.tick
                        if await self._emit_record(writer, key, record):
                            return
            terminal = self._terminals.get(key)
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
                "record": json.loads(record.to_json()),
                "final": final,
            },
        )
        return final
