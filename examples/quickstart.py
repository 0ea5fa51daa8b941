#!/usr/bin/env python3
"""Quickstart: run a Byzantine agreement protocol, then break a cheat.

Three things in two minutes:

1. Run Dolev–Strong broadcast among 7 processes with an *equivocating*
   Byzantine sender and watch agreement hold anyway.
2. Take a "too cheap to be true" weak consensus protocol and let the
   paper's lower-bound machinery construct a concrete execution that
   breaks it.
3. Check the numbers against the paper's ``t²/32`` floor.

Run with: ``python examples/quickstart.py``
"""

import pathlib
import sys

from repro.lowerbound import attack_weak_consensus, weak_consensus_floor
from repro.sim import ByzantineAdversary
from repro.protocols import (
    dolev_strong_spec,
    leader_echo_spec,
    scheme_for_spec,
)
from repro.sim import ExecutionSummary

# The Byzantine strategies are the test suite's adversary library.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from byzantine_strategies import equivocating_sender


def broadcast_with_equivocation() -> None:
    """Dolev–Strong vs a sender that signs two different values."""
    n, t = 7, 2
    spec = dolev_strong_spec(n, t)
    scheme = scheme_for_spec(n)
    adversary = ByzantineAdversary(
        {0},
        {0: equivocating_sender(scheme, "PAY-ALICE", "PAY-BOB")},
    )
    execution = spec.run(["PAY-ALICE"] + [None] * (n - 1), adversary)

    print("=== Dolev–Strong broadcast under an equivocating sender ===")
    print(ExecutionSummary.of(execution).render())
    decisions = set(execution.correct_decisions().values())
    assert len(decisions) == 1, "agreement must hold"
    print(f"all correct processes decided: {decisions.pop()!r}")
    print()


def break_a_cheap_protocol() -> None:
    """The Theorem-2 pipeline vs an O(n)-message weak consensus."""
    n, t = 16, 8
    spec = leader_echo_spec(n, t)
    outcome = attack_weak_consensus(spec)

    print("=== Lower-bound attack on the leader-echo cheater ===")
    print(outcome.render())
    assert outcome.found_violation
    witness = outcome.witness
    print()
    print("the violating execution (a genuine run of the protocol with")
    print(f"only {len(witness.execution.faulty)} omission-faulty "
          f"processes, budget t={t}):")
    print(ExecutionSummary.of(witness.execution).render())
    print()


def compare_against_the_floor() -> None:
    """Correct protocols pay; cheaters do not (and are broken for it)."""
    from repro.protocols import broadcast_weak_consensus_spec

    t = 96  # large enough for the floor to dwarf an O(n) protocol
    n = t + 4
    correct = broadcast_weak_consensus_spec(n, t)
    cheap = leader_echo_spec(n, t)
    floor = weak_consensus_floor(t)

    print("=== The t²/32 floor (Lemma 1) ===")
    print(f"floor at t={t}: {floor:.1f} messages")
    for spec in (correct, cheap):
        messages = spec.run_uniform(0).message_complexity()
        verdict = "pays the price" if messages >= floor else "cheats"
        print(f"  {spec.name}: {messages} messages -> {verdict}")


if __name__ == "__main__":
    broadcast_with_equivocation()
    break_a_cheap_protocol()
    compare_against_the_floor()
