#!/usr/bin/env python3
"""State machine replication on top of repeated Byzantine agreement.

The paper's introduction motivates Byzantine agreement as the heart of
state machine replication [32, 76, 100]; this example closes that loop:
a replicated key-value log is built as a sequence of strong-consensus
slots, and it stays consistent while one replica plays two-faced and
another crashes mid-run.  Each slot is a fresh synchronous execution of
the authenticated IC-based strong consensus, so every slot also pays the
Ω(t²) toll the paper proves unavoidable — the running total is printed
against the per-slot floor.

Run with: ``python examples/state_machine_replication.py``
"""

import pathlib
import sys

from repro.lowerbound import weak_consensus_floor
from repro.protocols import authenticated_strong_consensus_spec
from repro.sim import ByzantineAdversary, CrashAdversary

# The Byzantine strategies are the test suite's adversary library.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from byzantine_strategies import two_faced


def replicate_log(n: int, t: int, commands_per_replica, adversaries):
    """Run one consensus slot per command batch; return per-replica logs.

    Args:
        commands_per_replica: for each slot, a list of n proposals (what
            each replica would like to commit next).
        adversaries: per-slot adversary (or None).
    """
    logs: dict[int, list] = {pid: [] for pid in range(n)}
    total_messages = 0
    for slot, (proposals, adversary) in enumerate(
        zip(commands_per_replica, adversaries)
    ):
        spec = authenticated_strong_consensus_spec(
            n, t, seed=f"smr-slot-{slot}".encode()
        )
        execution = spec.run(proposals, adversary)
        total_messages += execution.message_complexity()
        for pid in execution.correct:
            logs[pid].append(execution.decision(pid))
    return logs, total_messages


def main() -> None:
    n, t = 5, 2
    slots = [
        [f"set x={value}" for _ in range(n)]
        for value in (1, 2, 3)
    ] + [
        # Slot 4: one correct replica dissents and one replica is
        # two-faced; the correct majority's command must still win.
        ["set y=A", "set y=A", "set y=A", "set y=B", "set y=A"],
    ]
    adversaries = [
        None,
        ByzantineAdversary({4}, {4: two_faced("set x=2", "EVIL")}),
        CrashAdversary({3: 1}),
        ByzantineAdversary({4}, {4: two_faced("set y=A", "set y=B")}),
    ]

    logs, total_messages = replicate_log(n, t, slots, adversaries)

    print("=== replicated logs (correct replicas of the last slot) ===")
    for pid in (0, 1, 2):
        rendered = " | ".join(str(entry) for entry in logs[pid])
        print(f"  replica {pid}: {rendered}")

    reference = logs[0]
    for pid in (1, 2):
        assert logs[pid][: len(reference)] == reference[: len(logs[pid])]
    print("logs are prefix-consistent across correct replicas")
    print()

    print("=== unanimity slots committed the unanimous command ===")
    for slot in range(3):
        assert reference[slot] == f"set x={slot + 1}"
    assert reference[3] == "set y=A"
    print("slots 1-3 committed 'set x=1..3' despite the attacks;")
    print("slot 4 committed the correct majority's 'set y=A'")
    print()

    floor = weak_consensus_floor(t)
    print("=== the toll (Theorem 3, per slot) ===")
    print(
        f"{len(slots)} slots cost {total_messages} messages "
        f"(>= {len(slots)} x t^2/32 = {len(slots) * floor:.1f}); "
        "every slot is a non-trivial agreement instance, so the paper "
        "says none of them could have been sub-quadratic."
    )
    assert total_messages >= len(slots) * floor


if __name__ == "__main__":
    main()
