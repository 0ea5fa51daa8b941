"""Mask-kernel speedup gate: the bitmask kernel must stay much faster.

Runs one dense all-to-all flood through both round engines — the object
engine (:func:`repro.sim.simulator.run_execution`, one ``Message`` per
send) and the bitmask kernel (:func:`repro.sim.kernel.run_kernel`, one
integer mask per round) — on machines so cheap that nearly all measured
time is the engine's representation overhead.  Both sides run warm in
one process, so the ratio of their loop minima is largely machine- and
load-independent.  Before timing, the kernel's
materialized execution is checked equal to the object run, so the gate
never times two different computations.

Usage (from the repository root)::

    PYTHONPATH=src python tools/kernel_speedup_gate.py --gate 8

Exit 0 when ``object / mask >= gate``, 1 otherwise.  The flood
workload's mask-vs-object equality is also pinned by
``tests/sim/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import argparse
import time

from repro.sim.adversary import NoFaults
from repro.sim.kernel import no_faults_compiled, run_kernel
from repro.sim.process import Process
from repro.sim.simulator import SimulationConfig, run_execution

FLOOD_N = 48
FLOOD_ROUNDS = 6


class EchoFlood(Process):
    """All-to-all broadcast with near-zero machine cost.

    ``outgoing`` returns a prebuilt row and ``deliver`` only decides at
    the horizon, so a timed run measures the *engine's* per-message /
    per-mask cost rather than protocol logic.
    """

    def __init__(self, pid, n, t, proposal, rounds):
        super().__init__(pid, n, t, proposal)
        self._rounds = rounds
        self._row = {
            receiver: proposal for receiver in range(n) if receiver != pid
        }

    def outgoing(self, round_):
        return self._row

    def deliver(self, round_, received):
        if round_ >= self._rounds and self.decision is None:
            self.decide(self.proposal)


def _flood_config(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    """The flood's simulation config and machine factory."""
    config = SimulationConfig(n=n, t=0, rounds=rounds, check=False)

    def factory(pid, proposal):
        return EchoFlood(pid, n, 0, proposal, rounds)

    return config, factory


def flood_object(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    """The flood on the object engine (the gate's denominator)."""
    config, factory = _flood_config(n, rounds)
    return run_execution(config, [1] * n, factory, NoFaults())


def flood_kernel(n=FLOOD_N, rounds=FLOOD_ROUNDS):
    """The flood on the mask kernel (the gate's numerator)."""
    config, factory = _flood_config(n, rounds)
    return run_kernel(config, [1] * n, factory, no_faults_compiled(n))


def _best_of(fn, repetitions):
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def speedup_gate(threshold: float, repetitions: int = 15) -> int:
    """Exit code 1 when the mask/object loop-minima speedup < threshold."""
    if flood_kernel().to_execution() != flood_object():
        print("kernel speedup gate: mask and object floods differ")
        return 1
    mask = _best_of(flood_kernel, repetitions)
    objects = _best_of(flood_object, repetitions)
    ratio = objects / mask if mask else float("inf")
    verdict = "OK" if ratio >= threshold else "REGRESSED"
    print(
        f"kernel speedup gate: object {objects * 1e3:.2f} ms / "
        f"mask {mask * 1e3:.2f} ms = {ratio:.1f}x "
        f"(threshold {threshold:.1f}x) {verdict}"
    )
    return 0 if ratio >= threshold else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="mask-vs-object kernel speedup gate"
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=8.0,
        help="minimum acceptable speedup on flood loop minima",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=15,
        help="timing repetitions per engine (minima are compared)",
    )
    args = parser.parse_args(argv)
    return speedup_gate(args.gate, args.repetitions)


if __name__ == "__main__":
    raise SystemExit(main())
