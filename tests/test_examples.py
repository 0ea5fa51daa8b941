"""Every ``examples/*.py`` runs, prints something, and prints the same
thing under two hash seeds (the examples README promises determinism).

Each script runs in a fresh interpreter with ``PYTHONPATH=src``, as a
reader runs it from a checkout.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} printed nothing"
    return completed.stdout


def test_every_example_is_collected():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_deterministically(script):
    assert _run(script, "0") == _run(script, "12345")
