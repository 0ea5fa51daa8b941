"""Byte-level fuzzing of the service frame path.

Valid ``ping``, ``status``, ``jobs``, ``submit`` (with and without
``wait``) and ``watch`` (of an unknown key, and of the key the
``submit`` frame queues) request lines are truncated, bit-flipped,
duplicated (the whole line sent twice, or one JSON value copied over
another) or reordered (two JSON values swapped), and each result is
sent on its own connection to one live
:class:`~repro.service.JobServer`.  Every connection must get exactly
one well-formed response frame — ``"ok": true``, or ``"ok": false``
with an ``error`` object carrying ``kind`` and ``message`` — and the
server must log no unhandled exception.  A request the server accepts
as a stream (``watch`` of a known key, ``submit`` with ``wait``) may
answer with several frames, each well-formed, the last one final.

Fixed seed and example count, so CI sees the same inputs every run.
"""

import json
import logging
import re
import shutil
import socket
import tempfile

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from test_server import _start, _stop

from repro.parallel.jobs import AttackJob
from repro.service.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    job_key,
)
from repro.worldlog.codec import encode_job

_JOB = encode_job(AttackJob("silent", 8, 4))

SUBMIT = encode_frame(
    {"op": "submit", "tenant": "fuzz", "priority": 1, "wait": False,
     "job": _JOB}
)

FRAMES = (
    encode_frame({"op": "ping"}),
    encode_frame({"op": "status"}),
    SUBMIT,
    encode_frame({"op": "watch", "key": "feedfacedeadbeef"}),
    encode_frame({"op": "jobs"}),
    encode_frame({"op": "watch", "key": job_key(_JOB)}),
    encode_frame(
        {
            "op": "submit",
            "tenant": "fuzz",
            "priority": 0,
            "wait": True,
            "job": encode_job(AttackJob("silent", 8, 4, certify=True)),
        }
    ),
)

_VALUE = re.compile(rb'(?<=": )("(?:[^"\\]|\\.)*"|-?\d+|true|false|null)')


@st.composite
def mutated(draw):
    """One mutation of one valid request line (newline included)."""
    line = draw(st.sampled_from(FRAMES))
    kind = draw(st.sampled_from(("truncate", "flip", "duplicate", "reorder")))
    if kind == "truncate":
        return line[: draw(st.integers(1, len(line) - 1))]
    if kind == "flip":
        position = draw(st.integers(0, len(line) - 1))
        flipped = line[position] ^ (1 << draw(st.integers(0, 7)))
        return line[:position] + bytes([flipped]) + line[position + 1:]
    values = list(_VALUE.finditer(line))
    if kind == "duplicate" and (len(values) < 2 or draw(st.booleans())):
        return line + line  # the whole request, twice on one connection
    assume(len(values) >= 2)
    first, second = sorted(
        draw(
            st.lists(
                st.sampled_from(values),
                min_size=2,
                max_size=2,
                unique_by=lambda match: match.start(),
            )
        ),
        key=lambda match: match.start(),
    )
    new_first, new_second = second.group(), first.group()  # reorder: swap
    if kind == "duplicate":  # one value copied over the other
        new_first = new_second = draw(
            st.sampled_from((first.group(), second.group()))
        )
    return (
        line[: first.start()]
        + new_first
        + line[first.end(): second.start()]
        + new_second
        + line[second.end():]
    )


def _request(blob):
    """The frame the server reads (its first line), or ``None``."""
    try:
        return decode_frame(blob.split(b"\n", 1)[0])
    except ProtocolError:
        return None


def _well_formed(frame):
    if frame.get("ok") is True:
        return True
    error = frame.get("error")
    return (
        frame.get("ok") is False
        and isinstance(error, dict)
        and isinstance(error.get("kind"), str)
        and isinstance(error.get("message"), str)
    )


def _check_response(blob, lines):
    """Every frame is well-formed; a stream ends with a final frame,
    any other request is answered with exactly one."""
    assert lines, "connection closed without a response"
    frames = [json.loads(line) for line in lines]
    assert all(_well_formed(frame) for frame in frames), frames
    request = _request(blob)
    streamed = (
        request is not None
        and frames[0]["ok"]
        and (
            request.get("op") == "watch"
            or (request.get("op") == "submit" and request.get("wait"))
        )
    )
    if streamed:
        assert frames[-1].get("final") is True, frames
    else:
        assert len(frames) == 1, frames


def _exchange(sock_path, blob):
    """Send ``blob``, half-close, and read every response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(60)
        raw.connect(sock_path)
        raw.sendall(blob)
        raw.shutdown(socket.SHUT_WR)
        return raw.makefile("rb").readlines()


class _Errors(logging.Handler):
    """Collects what the event loop logs (an unhandled exception in a
    connection callback lands here)."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def live_server():
    """One running server (socket under a short /tmp path, as in
    ``test_server.py``) and the handler its event loop logs into."""
    scratch = tempfile.mkdtemp(prefix="rfuzz", dir="/tmp")
    sock = f"{scratch}/s.sock"
    server, thread = _start(f"{scratch}/log.worldlog", sock)
    errors = _Errors()
    logger = logging.getLogger("asyncio")
    logger.addHandler(errors)
    try:
        yield sock, errors
    finally:
        logger.removeHandler(errors)
        _stop(server, thread)
        shutil.rmtree(scratch, ignore_errors=True)


def test_valid_frames_get_one_response(live_server):
    sock, errors = live_server
    for line in FRAMES:
        _check_response(line, _exchange(sock, line))
    assert not errors.records


def test_every_mutated_frame_gets_one_well_formed_response(live_server):
    sock, errors = live_server
    _exchange(sock, SUBMIT)  # the watched key is live from the start

    @seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(blob=mutated())
    def check(blob):
        request = _request(blob)
        # a mutated op that reads "shutdown" would stop the server
        assume(request is None or request.get("op") != "shutdown")
        errors.records.clear()
        lines = _exchange(sock, blob)
        assert not errors.records, errors.records[0].getMessage()
        _check_response(blob, lines)

    check()
