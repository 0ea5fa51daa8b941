"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e/test_harness.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import layers
import run
from workloads import (
    COUNTS,
    POOLS,
    SERVICE_WARM_UP,
    WORKLOADS,
    op_list,
)

run.load_program()

SEEDED = [name for name in WORKLOADS if name != "paper_all"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert op_list(workload, 7) == op_list(workload, 7)
    assert len(op_list(workload, 7)) == COUNTS[workload]


@pytest.mark.parametrize("workload", SEEDED)
def test_other_seed_other_ops(workload):
    assert op_list(workload, 0) != op_list(workload, 1)


def test_cell_prefixes_keep_the_mix():
    ops = op_list("cheater_matrix", 3)
    block = ops[:45]
    assert len({(op.builder, op.t) for op in block}) == 45
    assert all(op.t + 4 <= op.n <= op.t + 8 for op in ops)


@pytest.mark.parametrize("seed", range(20))
def test_service_pools_never_run_out(seed):
    ops = op_list("service_mixed", seed)
    fresh = [op for op in ops if op.kind != "replay"]
    assert len(set(fresh)) == len(fresh), "a fresh key was drawn twice"
    for kind, pool in POOLS.items():
        drawn = [op for op in fresh if op.kind == kind]
        assert len(drawn) < len(pool()), kind
        assert {(op.builder, op.n, op.t) for op in drawn} <= set(pool())
    done = set()
    for op in ops:
        if op.kind == "replay":
            assert (op.of, op.builder, op.n, op.t) in done
        else:
            done.add((op.kind, op.builder, op.n, op.t))
    shares = {kind: sum(op.kind == kind for op in ops) / len(ops)
              for kind in ("attack", "measure", "classify", "replay")}
    assert shares == {"attack": 0.55, "measure": 0.15,
                      "classify": 0.10, "replay": 0.20}


def test_service_warm_up_is_outside_the_pools():
    for op in SERVICE_WARM_UP:
        assert (op.builder, op.n, op.t) not in POOLS[op.kind]()


def test_self_time_folds_nested_calls():
    ticks = iter([0, 1, 3, 4, 7, 8, 9, 10])
    recorder = layers.SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)
    recurse = recorder.wrap("outer", lambda: None)

    def body():
        inner()  # 1..3
        inner()  # 4..7
        recurse()  # 8..9, nested in its own layer

    recorder.wrap("outer", body)()  # 0..10
    totals = recorder.totals()
    # outer: 10 - (2 + 3 + 1) of its own, plus the nested outer's 1
    assert totals["outer"] == {"self_s": 5, "calls": 2}
    assert totals["inner"] == {"self_s": 5, "calls": 2}


def test_span_stacks_are_per_thread():
    lock = threading.Lock()
    ticks = iter([0, 1, 4, 10])

    def clock():
        with lock:
            return next(ticks)

    recorder = layers.SpanRecorder(clock=clock)
    worker = recorder.wrap("worker", lambda: None)

    def serve():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    recorder.wrap("loop", serve)()
    totals = recorder.totals()
    # the worker thread's span is not a child of the loop thread's
    assert totals["loop"]["self_s"] == 10
    assert totals["worker"]["self_s"] == 3


def test_from_imports_are_wrapped_and_restored():
    from repro.experiments import CHEATERS
    from repro.lowerbound import driver, witnesses
    from repro.sim import execution, kernel

    original_kernel = kernel.run_kernel
    original_check = execution.check_execution
    recorder = layers.SpanRecorder()
    installation = layers.install(recorder, {
        "sim.kernel": (("repro.sim.kernel", "run_kernel"),),
        "sim.check": (("repro.sim.execution", "check_execution"),),
    })
    try:
        # names the driver and the witness checker took with from-import
        assert driver.run_kernel is kernel.run_kernel is not original_kernel
        assert witnesses.check_execution is not original_check
        driver.attack_weak_consensus(CHEATERS["silent"](12, 8))
    finally:
        installation.remove()
    assert driver.run_kernel is original_kernel
    assert witnesses.check_execution is original_check
    totals = recorder.totals()
    assert totals["sim.kernel"]["calls"] > 0
    assert totals["sim.check"]["calls"] > 0


def test_layer_table_targets_exist():
    table = layers.layer_table()
    assert set(table) == set(run.layer_names()) - {"startup"}
    assert len(table["protocols"]) >= 20


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    result = run.run_workload(
        "cheater_matrix", seed=0, seconds=None, trace=True, quick=True,
        work=tmp_path,
    )
    assert result.failed == 0
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    reported = sum(metrics[f"{layer}.ms_per_op"]
                   for layer in run.layer_names())
    total = reported + metrics["trace.unattributed_ms_per_op"]
    assert total == pytest.approx(metrics["trace.op_ms"], rel=0.01)
    assert 0 <= metrics["trace.unattributed_ms_per_op"]
    assert metrics["trace.unattributed.share"] <= 0.05


def test_quick_run_of_every_workload(tmp_path):
    out = tmp_path / "quick.json"
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--quick", "--out",
         str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - begin
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    document = json.loads(out.read_text())
    assert set(document["workloads"]) == set(WORKLOADS)
    for entry in document["workloads"].values():
        assert entry["failed"] == 0
        assert entry["metrics"]["error_rate"]["value"] == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    wanted = run.listed_metrics(trace=False)
    assert set(line["metrics"]) == {
        f"{workload}/{metric}" for workload in WORKLOADS for metric in wanted
    }
