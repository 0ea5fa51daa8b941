"""The committed golden log's rendered outputs, pinned byte for byte.

``tests/obs/golden/`` holds what ``repro metrics export --format prom``,
``repro trace`` and ``repro log stats`` (without its ``ts`` stamp)
print for ``tests/worldlog/golden/run.worldlog``.  Every one of them is
a fold over the log's recorded events, so a change to a fold (span
pairing, counter sums, last-gauge reads) that moves a single byte of
any reader's output fails here.

The files live outside ``tests/worldlog/golden/expected/``, which CI
diffs against ``repro log derive`` as a whole directory.
"""

import json
import os

import pytest

from repro.cli import main
from repro.worldlog.replay import log_stats
from repro.worldlog.store import read_worldlog

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_LOG = os.path.join(HERE, os.pardir, "worldlog", "golden", "run.worldlog")
EXPECTED = os.path.join(HERE, "golden")


def _expected(name: str) -> str:
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["metrics", "export", GOLDEN_LOG, "--format", "prom"], "run.prom"),
        (["trace", GOLDEN_LOG], "run.trace.txt"),
    ],
    ids=["metrics-export", "trace"],
)
def test_cli_output_is_byte_identical(argv, name, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == _expected(name)


def test_log_stats_is_byte_identical():
    document = log_stats(read_worldlog(GOLDEN_LOG))
    rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert rendered == _expected("run.stats.json")
