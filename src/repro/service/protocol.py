"""The attack service's wire protocol: framed JSON over a local socket.

One connection carries a sequence of *frames* — UTF-8 JSON objects, one
per line, exactly the world log's shape discipline.  A client sends one
request frame; the server answers with one response frame (``submit``,
``jobs``, ``ping``, ``shutdown``) or a response *stream* terminated by
a ``"final": true`` frame (``submit --wait``, ``watch``).  Every
response carries ``"ok"``: ``true`` with the operation's payload, or
``false`` with a structured ``"error"`` object (``kind`` + ``message``)
the client maps onto the repository's uniform exit codes — quota and
rate rejections are *domain* failures (exit 1), never protocol errors.

The idempotency anchor is :func:`job_key`: the SHA-256 of the job
spec's canonical JSON, truncated to 16 hex digits.  Two submissions
describing the same work — same kind, builder, parameters *and
options* — hash identically whatever the tenant, priority or
submission order, so the server can answer a re-submission from the
recorded terminal result without simulating anything.

>>> from repro.parallel.jobs import AttackJob
>>> from repro.worldlog.codec import encode_job
>>> key = job_key(encode_job(AttackJob("silent", 8, 4)))
>>> key == job_key(encode_job(AttackJob("silent", 8, 4)))
True
>>> len(key)
16
>>> key != job_key(encode_job(AttackJob("silent", 8, 4, certify=True)))
True

Frames round-trip through :func:`encode_frame` / :func:`decode_frame`:

>>> decode_frame(encode_frame({"op": "ping"}))
{'op': 'ping'}
>>> decode_frame("not json")
Traceback (most recent call last):
  ...
repro.service.protocol.ProtocolError: malformed frame: not json
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.errors import ReproError
from repro.sim.serialization import canonical_json

SERVICE_SCHEMA = "repro.service/v1"
"""The protocol version announced by ``ping`` responses."""

OPS = ("ping", "status", "submit", "jobs", "watch", "shutdown")
"""The request vocabulary, in documentation order.

* ``ping`` — liveness + server identity (schema tag, run id, backend,
  worker count, queue depth).
* ``status`` — the full live-state fold: queue depth by priority,
  per-tenant pending/quota/token-bucket occupancy, worker-pool
  utilization and per-job progress (what ``repro status`` and
  ``repro top`` render).
* ``submit`` — enqueue one job (``tenant``, ``priority``, ``job`` spec;
  optional ``wait`` keeps the connection open until the terminal
  frame).
* ``jobs`` — the live job manifest, newest state per idempotent key.
* ``watch`` — stream a job's world-log records (replay, then live)
  until its terminal record.
* ``shutdown`` — stop accepting work, finish in-flight jobs, exit;
  queued jobs stay in the log for the next ``repro serve``.
"""

JOB_STATES = ("queued", "running", "done", "failed")
"""The job lifecycle, in order.  Transitions only move right:
``queued → running → done | failed``; a restart rewinds ``running``
(no terminal record) back to ``queued``, never past a terminal."""


class ProtocolError(ReproError):
    """A frame that is not valid service protocol (peer gets an error
    response; a malformed *response* surfaces to the client as exit 1)."""


def job_key(encoded_job: dict[str, Any]) -> str:
    """The idempotent job key: canonical-JSON SHA-256, 16 hex digits.

    Tenant and priority are deliberately *not* part of the key: they
    describe who asked and how urgently, not what the work is.
    """
    digest = hashlib.sha256(
        canonical_json(encoded_job).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def encode_frame(payload: dict[str, Any]) -> bytes:
    """One frame: the payload's JSON plus the line terminator."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one received line back into a frame payload.

    Raises:
        ProtocolError: when the line is not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed frame: {line}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame is not an object: {line}"
        )
    return payload


def error_frame(kind: str, message: str) -> dict[str, Any]:
    """The uniform failure response body."""
    return {"ok": False, "error": {"kind": kind, "message": message}}


def parse_request(frame: dict[str, Any]) -> str:
    """Validate a request frame's ``op``; returns it.

    Raises:
        ProtocolError: for a missing or unknown operation.
    """
    op = frame.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return op
