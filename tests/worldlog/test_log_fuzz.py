"""Byte-level fuzzing of the world-log readers.

The committed golden log (``tests/worldlog/golden/run.worldlog``) is
truncated, bit-flipped (anywhere, or inside a JSON key), or has a line
reordered or duplicated.  Every result goes to both line readers
(``read_worldlog`` and a cold ``LogTailer.poll``) and to the folds
over what they return (``replay_state``, ``jobs_manifest``,
``certificate_texts``, ``ledger_events``, ``recover_jobs``).  Each
reader either accepts its input or raises ``ArtifactError`` (the
CLI's exit 2 with a ``path:line`` diagnostic); nothing else may
escape.

Fixed seed and example count, so CI sees the same inputs every run.
"""

import functools
import os
import re
import tempfile

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import ArtifactError
from repro.service.queue import recover_jobs
from repro.worldlog import LogTailer, read_worldlog
from repro.worldlog.replay import replay_state
from repro.worldlog.views import (
    certificate_texts,
    jobs_manifest,
    ledger_events,
)

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "run.worldlog"
)

FOLDS = (
    replay_state,
    jobs_manifest,
    certificate_texts,
    ledger_events,
    recover_jobs,
)

_KEY = re.compile(rb'"(\w+)": ')


@functools.cache
def _golden() -> bytes:
    with open(GOLDEN, "rb") as handle:
        return handle.read()


@functools.cache
def _key_positions() -> list[int]:
    """Offsets of the bytes that spell a JSON key in the golden log.

    About half of the bit flips land here: a flipped key is a record or
    payload that lost a field, which a uniform flip rarely produces.
    """
    return [
        offset
        for match in _KEY.finditer(_golden())
        for offset in range(match.start(1), match.end(1))
    ]


@st.composite
def mutated(draw):
    """One mutation of the golden log's bytes."""
    blob = _golden()
    kind = draw(st.sampled_from(("truncate", "flip", "reorder", "duplicate")))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        position = draw(
            st.integers(0, len(blob) - 1) | st.sampled_from(_key_positions())
        )
        flipped = blob[position] ^ (1 << draw(st.integers(0, 7)))
        return blob[:position] + bytes([flipped]) + blob[position + 1:]
    lines = blob.splitlines(keepends=True)
    first = draw(st.integers(0, len(lines) - 1))
    second = draw(st.integers(0, len(lines) - 1).filter(lambda i: i != first))
    if kind == "reorder":
        lines[first], lines[second] = lines[second], lines[first]
    else:
        lines.insert(second, lines[first])
    return b"".join(lines)


def _accepted(read, *args):
    """``read(*args)``, or ``None`` when it raised ``ArtifactError``."""
    try:
        return read(*args)
    except ArtifactError:
        return None


class TestWorldLogFuzz:
    def test_golden_log_reads_everywhere(self):
        records = read_worldlog(GOLDEN)
        assert LogTailer(GOLDEN).poll() == records
        for fold in FOLDS:
            fold(records)

    @seed(20240617)
    @settings(max_examples=200, deadline=None, derandomize=False)
    @given(blob=mutated())
    def test_mutations_raise_nothing_but_artifact_errors(self, blob):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzzed.worldlog")
            with open(path, "wb") as handle:
                handle.write(blob)
            for records in (
                _accepted(read_worldlog, path),
                _accepted(LogTailer(path).poll),
            ):
                for fold in FOLDS if records is not None else ():
                    _accepted(fold, records)
