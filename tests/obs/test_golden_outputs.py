"""Two committed logs' rendered outputs, pinned byte for byte.

``tests/obs/golden/`` holds what the log readers print for two logs:

* ``tests/worldlog/golden/run.worldlog``, a recorded attack: ``repro
  metrics export --format prom``, ``repro trace`` (text and ``--format
  chrome``), ``repro log stats`` (without its ``ts`` stamp) and ``repro
  log replay --at T`` at every tick, concatenated;
* ``jobs.worldlog``, a hand-written job-bearing log: three jobs (done,
  failed, running), a quota rejection, a certificate, events before and
  after a ``gather.start``, two cells on two workers with round
  counters and ``bound.*`` gauges, an unclosed span, and span ends that
  close an outer span or nothing.  Its pins add ``repro jobs --log``
  and the derived ``jobs.json`` to the readers above.

Every one of them is a fold over the log's records, so a change to a
fold (span pairing, counter sums, last-gauge reads, per-cell grouping,
job transitions) that moves a single byte of any reader's output fails
here.  The outputs were rendered before the readers were rebuilt on
one shared fold; the files live outside
``tests/worldlog/golden/expected/``, which CI diffs against ``repro log
derive`` as a whole directory.
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
JOBS_LOG = os.path.join(EXPECTED, "jobs.worldlog")
LOGS = {"run": GOLDEN_LOG, "jobs": JOBS_LOG}


def _expected(name: str) -> str:
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as handle:
        return handle.read()


def _stats(path: str) -> str:
    document = log_stats(read_worldlog(path))
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["metrics", "export", GOLDEN_LOG, "--format", "prom"], "run.prom"),
        (["trace", GOLDEN_LOG], "run.trace.txt"),
        (["trace", GOLDEN_LOG, "--format", "chrome"], "run.chrome.json"),
        (["metrics", "export", JOBS_LOG, "--format", "prom"], "jobs.prom"),
        (["trace", JOBS_LOG], "jobs.trace.txt"),
        (["trace", JOBS_LOG, "--format", "chrome"], "jobs.chrome.json"),
        (["jobs", "--log", JOBS_LOG], "jobs.jobs.txt"),
    ],
    ids=[
        "metrics-export", "trace", "trace-chrome",
        "jobs-metrics-export", "jobs-trace", "jobs-trace-chrome",
        "jobs-list",
    ],
)
def test_cli_output_is_byte_identical(argv, name, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == _expected(name)


def test_log_stats_is_byte_identical():
    assert _stats(GOLDEN_LOG) == _expected("run.stats.json")


def test_jobs_log_stats_is_byte_identical():
    assert _stats(JOBS_LOG) == _expected("jobs.stats.json")


@pytest.mark.parametrize("log", sorted(LOGS))
def test_replay_at_every_tick_is_byte_identical(log, capsys):
    path = LOGS[log]
    rendered = []
    for record in read_worldlog(path):
        assert main(["log", "replay", path, "--at", str(record.tick)]) == 0
        rendered.append(capsys.readouterr().out)
    assert "".join(rendered) == _expected(f"{log}.replay.txt")


def test_derived_jobs_manifest_is_byte_identical(tmp_path, capsys):
    assert main(["log", "derive", JOBS_LOG, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "jobs.json").read_text(encoding="utf-8") == _expected(
        "jobs.manifest.json"
    )
