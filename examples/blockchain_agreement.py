#!/usr/bin/env python3
"""Blockchain-style agreement with External Validity (§4.3, Corollary 1).

Validators must agree on a *correctly signed* client transaction.  The
scenario the paper's §4.3 motivates:

* clients sign transactions; ``valid(·)`` is signature verification;
* a Byzantine validator pushes a *forged* transaction — it must never be
  decided;
* the protocol has two fully-correct executions deciding different
  transactions, so Corollary 1 applies: the Algorithm-1 reduction turns
  it into weak consensus for free, and the ``t²/32`` floor binds.

Run with: ``python examples/blockchain_agreement.py``
"""

import pathlib
import sys

from repro.lowerbound import weak_consensus_floor
from repro.sim import ByzantineAdversary
from repro.protocols import ClientPool, external_validity_spec
from repro.reductions import reduce_weak_consensus_from_executions

# The Byzantine strategies are the test suite's adversary library.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from byzantine_strategies import garbage


def main() -> None:
    n, t = 6, 2
    pool = ClientPool(clients=n)
    valid = pool.validator()
    spec = external_validity_spec(
        n, t, validator=valid, fallback=pool.issue(0, "noop")
    )

    print("=== validators agree on a signed transaction ===")
    txs = [pool.issue(client, f"transfer #{client}") for client in range(n)]
    execution = spec.run(txs)
    decided = execution.decision(0)
    print(f"decided: client {decided.client}, body {decided.body!r}")
    assert valid(decided)
    print("decision passes the global validity predicate")
    print()

    print("=== a forging leader is skipped ===")
    forged = list(txs)
    forged[0] = pool.forge(0, "mint myself 1e9 coins")
    execution = spec.run(forged)
    decided = execution.decision(1)
    print(f"leader 0 proposed a forgery; decided instead: "
          f"client {decided.client}, body {decided.body!r}")
    assert valid(decided)
    assert decided != forged[0]
    print()

    print("=== a garbage-spewing Byzantine validator changes nothing ===")
    adversary = ByzantineAdversary({3}, {3: garbage()})
    execution = spec.run(txs, adversary)
    decisions = {
        execution.decision(pid) for pid in execution.correct
    }
    assert len(decisions) == 1
    decided = decisions.pop()
    assert valid(decided)
    print(f"all correct validators decided client {decided.client}'s "
          "transaction")
    print()

    print("=== Corollary 1: the bound applies to this algorithm ===")
    workload_a = [pool.issue(client, "block-A") for client in range(n)]
    workload_b = [pool.issue(client, "block-B") for client in range(n)]
    decision_a = spec.run(workload_a).decision(0)
    decision_b = spec.run(workload_b).decision(0)
    print(f"fully-correct run A decides body {decision_a.body!r}")
    print(f"fully-correct run B decides body {decision_b.body!r}")
    assert decision_a != decision_b

    weak = reduce_weak_consensus_from_executions(
        spec, workload_a, workload_b
    )
    zero = weak.run_uniform(0)
    one = weak.run_uniform(1)
    assert set(zero.correct_decisions().values()) == {0}
    assert set(one.correct_decisions().values()) == {1}
    print("Algorithm 1 turned it into weak consensus with zero extra "
          "messages:")
    print(f"  outer messages = {zero.message_complexity()}, "
          f"floor t^2/32 = {weak_consensus_floor(t):.1f}")
    print("hence this blockchain agreement cannot dodge the Ω(t²) bound.")


if __name__ == "__main__":
    main()
