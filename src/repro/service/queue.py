"""The service's priority queue and its world-log recovery function.

:class:`JobQueue` is a pure, synchronous data structure — no locks, no
sockets, no log.  The server owns exactly one and touches it only from
the event-loop thread; tests drive it directly.  Ordering is a binary
heap on ``(-priority, seq)``: higher ``priority`` first, and within one
priority strictly first-come-first-served by acceptance sequence.

:func:`recover_jobs` is the crash-resume half: it reads a resumed world
log's jobs back into queue entries and recorded results, off the one
replay fold (:class:`~repro.worldlog.replay.ReplayState`) whose job
transitions also give the ``jobs.json`` manifest — the manifest is the
operator's *view* of the same transition function the server
*executes*:

* ``job.submitted`` with no later record → the job is still queued;
* ``job.start`` with no terminal record → the job died mid-run and is
  **re-queued** (its next attempt appends a fresh ``job.start``; the
  one-terminal-record invariant is untouched because no terminal was
  ever written);
* ``job.result`` / ``job.error`` → terminal; the payload becomes the
  recorded result a re-submission of the same key is answered from.

A restarted server and a resumed sweep both recover through this one
fold, and a tampered log fails with a ``path:line`` artifact error:
payloads are shape-checked by
:func:`~repro.worldlog.record.payload_problem` (the check the log
readers apply to every line) and recalled fields decoded by
:func:`decode_recorded`.

>>> queue = JobQueue()
>>> queue.push(JobEntry(key="aa", tenant="t", priority=0, job={}))
>>> queue.push(JobEntry(key="bb", tenant="t", priority=5, job={}))
>>> queue.push(JobEntry(key="cc", tenant="t", priority=0, job={}))
>>> [queue.pop().key for _ in range(3)]
['bb', 'aa', 'cc']
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.artifact import artifact_error
from repro.errors import ReproError
from repro.worldlog.record import Record, payload_problem
from repro.worldlog.replay import ReplayState

_CHECKED_KINDS = frozenset({"job.submitted", "job.result", "job.error"})
"""The job kinds whose payload fields the fold reads: checked first, so
a tampered log fails with ``path:line`` rather than a ``KeyError``."""

_DECODE_FAILURES = (
    KeyError, TypeError, ValueError, AttributeError, ReproError,
)


@dataclass
class JobEntry:
    """One accepted job: the queue's (and the log's) unit of work.

    Attributes:
        key: the idempotent job key (:func:`repro.service.protocol
            .job_key` of the encoded spec).
        tenant: who submitted it (quota accounting unit).
        priority: bigger runs sooner; ties break by acceptance order.
        job: the encoded job spec, exactly the ``job.submitted``
            payload's ``job`` field.
        state: one of :data:`repro.service.protocol.JOB_STATES`.
        seq: acceptance sequence number (assigned by :meth:`JobQueue
            .push`; survives recovery because record order is acceptance
            order).
    """

    key: str
    tenant: str
    priority: int
    job: dict[str, Any]
    state: str = "queued"
    seq: int = field(default=-1)


class JobQueue:
    """A priority queue of :class:`JobEntry` — highest priority first.

    >>> queue = JobQueue()
    >>> queue.push(JobEntry(key="aa", tenant="t", priority=1, job={}))
    >>> len(queue)
    1
    >>> queue.pop().state
    'running'
    >>> queue.pop() is None
    True
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, JobEntry]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: JobEntry) -> None:
        """Accept one entry; stamps its ``seq`` and queues it."""
        entry.seq = next(self._seq)
        entry.state = "queued"
        heapq.heappush(self._heap, (-entry.priority, entry.seq, entry))

    def pop(self) -> JobEntry | None:
        """The next entry to run (marked ``running``), or ``None``."""
        if not self._heap:
            return None
        _, _, entry = heapq.heappop(self._heap)
        entry.state = "running"
        return entry

    def depth_by_priority(self) -> dict[int, int]:
        """Queued-entry counts keyed by priority, highest first.

        A read-only status fold over the live heap; the JSON encoder
        stringifies the integer keys on the wire.

        >>> queue = JobQueue()
        >>> for priority in (0, 5, 0):
        ...     queue.push(JobEntry(key=f"k{priority}", tenant="t",
        ...                         priority=priority, job={}))
        >>> queue.depth_by_priority()
        {5: 1, 0: 2}
        """
        depths: dict[int, int] = {}
        for negated, _, _ in self._heap:
            depths[-negated] = depths.get(-negated, 0) + 1
        return dict(
            sorted(depths.items(), key=lambda item: -item[0])
        )


def recover_jobs(
    records: Iterable[Record], path: str = "world log"
) -> tuple[list[JobEntry], dict[str, Record]]:
    """Fold a resumed log's ``job.*`` records into queue state.

    Returns ``(pending, terminals)``: the entries to re-queue in
    acceptance order (both never-started and died-mid-run jobs), and
    the terminal record per completed key — the recorded results that
    make re-submission free and restarts idempotent.

    Raises:
        ArtifactError: when a ``job.*`` payload lacks a field the fold
            reads (``path:line`` diagnostic, CLI exit 2).
    """
    state = ReplayState()
    for record in records:
        if record.kind in _CHECKED_KINDS:
            problem = payload_problem(record.kind, record.payload)
            if problem is not None:
                raise _record_error(record, path, ValueError(problem))
        state.apply(record)
    pending = [
        JobEntry(entry["key"], entry["tenant"], entry["priority"], entry["job"])
        for entry in map(state.jobs.get, state.pending_jobs)
    ]
    return pending, state.terminals


def decode_recorded(
    record: Record,
    name: str,
    decode: Callable[[Any], Any],
    path: str = "world log",
) -> Any:
    """Decode one recalled payload field with the fold's diagnostic.

    Raises:
        ArtifactError: when the field does not decode (CLI exit 2).
    """
    try:
        return decode(record.payload[name])
    except _DECODE_FAILURES as exc:
        raise _record_error(record, path, exc) from exc


def recorded_jobs(
    records: Iterable[Record], path: str = "world log"
) -> list[Any]:
    """Every accepted job spec, decoded, in acceptance order.

    Raises:
        ArtifactError: when a recorded spec does not decode.
    """
    from repro.worldlog.codec import decode_job

    return [
        decode_recorded(record, "job", decode_job, path)
        for record in records
        if record.kind == "job.submitted"
    ]


def _record_error(
    record: Record, path: str, error: BaseException
) -> Exception:
    # Logs are written one record per line from tick 0, and a resume
    # rewrites them that way, so a record's line is its tick plus one.
    return artifact_error(
        path, f"{record.kind} record", error, line=record.tick + 1
    )
