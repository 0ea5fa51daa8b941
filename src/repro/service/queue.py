"""The service's world-log recovery function: the log is the queue.

There is no queue object.  The run order is a view of the replay fold
(:class:`~repro.worldlog.replay.ReplayState`): its ``pending_jobs``
index holds the keys with no terminal record in acceptance order, and
:attr:`~repro.worldlog.replay.ReplayState.queued_jobs` orders the
queued ones highest ``priority`` first, then first-come-first-served.
A job's spec, tenant, priority and state live only in the fold's
``jobs``.

:func:`recover_jobs` is the crash-resume half: it folds a resumed world
log once, checking every ``job.*`` payload the fold reads, and returns
that fold — the server keeps it as its live job state, and the sweep
recalls recorded results from it.  Its job transitions are the ones
the ``jobs.json`` manifest shows:

* ``job.submitted`` with no later record → the job is still queued;
* ``job.start`` with no terminal record → the job died mid-run and is
  **re-queued**: the recovered fold reads it ``queued`` again, until
  its next attempt appends a fresh ``job.start`` (the
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

>>> def submitted(tick, key, priority):
...     return Record(tick, "job.submitted", {
...         "key": key, "tenant": "t", "priority": priority, "job": {}})
>>> state = recover_jobs([
...     submitted(0, "aa", 0),
...     Record(1, "job.start", {"key": "aa"}),  # died mid-run
...     submitted(2, "bb", 0),
...     submitted(3, "cc", 5),
... ])
>>> state.queued_jobs
['cc', 'aa', 'bb']
"""

from __future__ import annotations

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


def recover_jobs(
    records: Iterable[Record], path: str = "world log"
) -> ReplayState:
    """Fold a resumed log once, checking the ``job.*`` payloads it reads.

    Returns the fold with the recovery rule applied: every pending job
    (:attr:`~repro.worldlog.replay.ReplayState.pending_jobs`, in
    acceptance order) reads ``queued``, a died-mid-run one included,
    since a restart re-queues it.  Its ``terminals`` are the recorded
    results that make re-submission free and restarts idempotent.

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
    for key in state.pending_jobs:
        state.jobs[key]["state"] = "queued"
    return state


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
