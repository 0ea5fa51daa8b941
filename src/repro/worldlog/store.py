"""The world-log store: write-through appends, torn-tail-safe reads.

A :class:`WorldLog` owns one JSONL file.  Appends are *write-through*:
every record is serialized, written and flushed before ``append``
returns, so a killed process leaves at most one torn final line — never
a silently missing middle.  :func:`read_worldlog` is the matching
reader: a final line with no trailing newline that fails to parse is a
crash artifact and is dropped; any other malformed line is a corrupt
log and raises the uniform :class:`~repro.errors.ArtifactError`.

Opening modes:

* :meth:`WorldLog.create` — start a fresh log; writes the ``log.open``
  header (schema tag + run id) as tick 0.
* :meth:`WorldLog.resume` — reopen an existing log and continue its
  tick sequence; already-persisted records stay readable via
  :attr:`WorldLog.records`, which is how crash-resume finds the cells
  it may skip.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, TextIO

from repro.artifact import artifact_error
from repro.errors import ArtifactError
from repro.worldlog.record import WORLDLOG_SCHEMA, Record, payload_problem

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.ledger import LedgerEvent


class WorldLog:
    """One append-only, tick-ordered record store on disk.

    Not constructed directly — use :meth:`create` or :meth:`resume`.
    """

    def __init__(
        self,
        path: str,
        handle: TextIO,
        records: list[Record],
        run_id: str,
    ) -> None:
        self.path = path
        self._handle = handle
        self.records = records
        self.run_id = run_id

    @classmethod
    def create(cls, path: str, run_id: str | None = None) -> "WorldLog":
        """Start a fresh log at ``path`` (parents created on demand)."""
        from repro.obs.ledger import new_run_id

        run_id = new_run_id() if run_id is None else run_id
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        handle = open(path, "w", encoding="utf-8")
        log = cls(path=path, handle=handle, records=[], run_id=run_id)
        log.append("log.open", {"schema": WORLDLOG_SCHEMA})
        return log

    @classmethod
    def resume(cls, path: str) -> "WorldLog":
        """Reopen an existing log, continuing its tick sequence.

        A torn final line (the signature of a killed writer) is
        truncated away before appending resumes; the surviving records
        are exposed on :attr:`records` so callers can skip work whose
        terminal record is already present.

        Raises:
            ArtifactError: if the file is not a world log.
            OSError: if it cannot be read or reopened.
        """
        records = read_worldlog(path)
        # Rewrite the surviving complete lines: this atomically drops a
        # torn tail so the next append starts on a fresh line.
        with open(path, "w", encoding="utf-8") as rewrite:
            for record in records:
                rewrite.write(record.to_json())
                rewrite.write("\n")
        handle = open(path, "a", encoding="utf-8")
        return cls(
            path=path,
            handle=handle,
            records=list(records),
            run_id=records[0].run_id,
        )

    def __len__(self) -> int:
        return len(self.records)

    def __enter__(self) -> "WorldLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def next_tick(self) -> int:
        """The tick the next appended record will carry."""
        return self.records[-1].tick + 1 if self.records else 0

    def append(
        self,
        kind: str,
        payload: Any,
        cell_id: str | None = None,
        worker_id: int | None = None,
    ) -> Record:
        """Append one record and flush it to disk before returning."""
        record = Record(
            tick=self.next_tick,
            kind=kind,
            payload=payload,
            run_id=self.run_id,
            cell_id=cell_id,
            worker_id=os.getpid() if worker_id is None else worker_id,
        )
        self._handle.write(record.to_json())
        self._handle.write("\n")
        self._handle.flush()
        self.records.append(record)
        return record

    def record_event(self, event: "LedgerEvent") -> Record:
        """Mirror one live ledger event into the log, verbatim.

        This is the :class:`~repro.obs.ledger.RunLedger` sink: wire it
        via ``RunLedger(sink=worldlog.record_event)`` and every event
        the ledger accumulates — emitted or spliced — lands in the log
        in the same order, so the derived ledger view holds exactly the
        ledger's :meth:`~repro.obs.ledger.LedgerEvent.to_json` lines.
        """
        return self.append(
            "ledger.event",
            payload=event.payload(),
            cell_id=event.cell_id,
            worker_id=event.worker_id,
        )

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


def read_records(path: str) -> list[Record]:
    """Parse every complete record of one log file, torn-tail-safe.

    The single parsing path every reader shares — :func:`read_worldlog`
    (and through it :meth:`WorldLog.resume`, the derived views, the
    replay cursor and the differ) all see exactly this record list, so
    a truncated-mid-record log cannot mean different things to
    different entry points.  A final line with no trailing newline that
    fails to decode or parse is dropped (the write-through appender
    guarantees that is the only shape a crash can leave, and a torn
    write may split a multi-byte character); a malformed line anywhere
    else — bytes that are not UTF-8 and a known kind's mis-shaped
    payload included — raises, so every reader downstream sees only
    well-shaped payloads.  No header validation happens here — that is
    :func:`read_worldlog`'s contract.

    Raises:
        ArtifactError: on a malformed non-final line (CLI exit 2).
        OSError: if the file cannot be read.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    complete_through = len(lines) if data.endswith(b"\n") else len(lines) - 1
    records: list[Record] = []
    for number, raw in enumerate(lines, start=1):
        try:
            record = _parse_line(path, raw, number)
        except ArtifactError:
            if number > complete_through:
                break  # torn tail: the one legal crash artifact
            raise
        if record is not None:
            records.append(record)
    return records


def _parse_line(path: str, raw: bytes, number: int) -> Record | None:
    """One complete log line as a record (``None`` when blank).

    Raises:
        ArtifactError: ``path:number: not a world-log record`` when the
            line is not a record envelope, ``path:number: not a KIND
            record`` when a known kind's payload is mis-shaped
            (:func:`~repro.worldlog.record.payload_problem`).
    """
    try:
        # bytes that are not UTF-8 fail here, as a ValueError
        line = raw.decode("utf-8").strip()
        if not line:
            return None
        record = Record.from_json(line)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise artifact_error(
            path, "world-log record", exc, line=number
        ) from exc
    problem = payload_problem(record.kind, record.payload)
    if problem is not None:
        raise artifact_error(
            path, f"{record.kind} record", ValueError(problem), line=number
        )
    return record


def read_worldlog(path: str) -> list[Record]:
    """Load a persisted world log, tolerating a torn final line.

    :func:`read_records` plus header validation: the first record must
    be the ``log.open`` header carrying the
    :data:`~repro.worldlog.record.WORLDLOG_SCHEMA` tag.

    Raises:
        ArtifactError: if the file is not a world log (CLI exit 2).
        OSError: if the file cannot be read.
    """
    records = read_records(path)
    if (
        not records
        or records[0].kind != "log.open"
        or not isinstance(records[0].payload, dict)
        or records[0].payload.get("schema") != WORLDLOG_SCHEMA
    ):
        raise ArtifactError(
            f"{path}: not a world log (expected a log.open header "
            f"with schema {WORLDLOG_SCHEMA!r})"
        )
    return records


class LogTailer:
    """Incremental, torn-tail-safe reader of a *growing* world log.

    The follow-mode primitive behind ``repro log tail --follow`` and
    the log-backed ``repro top``: each :meth:`poll` reads only the
    bytes appended since the last one and yields the newly *complete*
    records.  The write-through appender's crash contract carries
    over — a partial final line (no ``\\n`` yet) is buffered, not
    parsed, so a record mid-write is simply "not there yet" and is
    yielded whole on a later poll.  A malformed **complete** line is
    corruption and raises the uniform artifact diagnostic, exactly
    like :func:`read_records`.

    Truncation-aware: :meth:`WorldLog.resume` rewrites the file to
    drop a torn tail, which can shrink it below our read offset.  A
    shrink resets the tailer to re-read from the start, skipping the
    records it already emitted by count — followers survive a
    crash-resume of the writer without duplicating records.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self._buffer = b""
        self._emitted = 0
        self._line_number = 0

    def poll(self) -> list[Record]:
        """The records completed since the last poll (maybe empty).

        Raises:
            ArtifactError: on a malformed complete line (CLI exit 2).
            OSError: if the file cannot be read.
        """
        try:
            size = os.stat(self.path).st_size
        except FileNotFoundError:
            return []
        if size < self._offset:
            # The writer rewrote the file (resume truncating a torn
            # tail): start over, but skip what we already emitted.
            self._offset = 0
            self._buffer = b""
            self._line_number = 0
            skip = self._emitted
        else:
            skip = 0
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._offset += len(chunk)
        self._buffer += chunk
        records: list[Record] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            raw = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1 :]
            self._line_number += 1
            record = _parse_line(self.path, raw, self._line_number)
            if record is None:
                continue
            if skip > 0:
                skip -= 1
                continue
            records.append(record)
            self._emitted += 1
        return records
