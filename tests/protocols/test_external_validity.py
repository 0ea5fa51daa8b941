"""Tests for external-validity agreement (§4.3, Corollary 1)."""

from byzantine_strategies import garbage, mute
from repro.protocols.external_validity import (
    ClientPool,
    external_validity_spec,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary


def make_setup(n=5, t=2):
    pool = ClientPool(clients=n)
    spec = external_validity_spec(
        n,
        t,
        validator=pool.validator(),
        fallback=pool.issue(0, "fallback"),
    )
    return pool, spec


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestClientPool:
    def test_issue_validates(self):
        pool, _ = make_setup()
        valid = pool.validator()
        assert valid(pool.issue(1, "pay alice 5"))

    def test_forge_fails_validation(self):
        pool, _ = make_setup()
        valid = pool.validator()
        assert not valid(pool.forge(1, "pay mallory 500"))

    def test_non_transactions_invalid(self):
        pool, _ = make_setup()
        valid = pool.validator()
        assert not valid("just a string")
        assert not valid(None)

    def test_tamper_detected(self):
        from dataclasses import replace

        pool, _ = make_setup()
        valid = pool.validator()
        transaction = pool.issue(2, "original")
        tampered = replace(transaction, body="evil")
        assert not valid(tampered)


class TestAgreement:
    def test_fault_free_decides_leader_zero_tx(self):
        pool, spec = make_setup()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        execution = spec.run(txs)
        assert decisions(execution) == {txs[0]}

    def test_decision_always_valid(self):
        pool, spec = make_setup()
        valid = pool.validator()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        adversary = ByzantineAdversary({0}, {0: garbage()})
        execution = spec.run(txs, adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        assert valid(next(iter(agreed)))

    def test_invalid_leader_proposals_skipped(self):
        """Faulty leaders broadcasting forged transactions are skipped in
        favour of the first valid broadcast (External Validity)."""
        pool, spec = make_setup()
        valid = pool.validator()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        txs[0] = pool.forge(0, "bad")  # leader 0 proposes a forgery
        execution = spec.run(txs)
        agreed = decisions(execution)
        assert agreed == {txs[1]}
        assert valid(next(iter(agreed)))

    def test_crashing_leaders(self):
        pool, spec = make_setup()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        execution = spec.run(txs, CrashAdversary({0: 1, 1: 1}))
        # Leaders 0 and 1 silent; leader 2 (the last designated) saves it.
        assert decisions(execution) == {txs[2]}

    def test_all_designated_leaders_byzantine(self):
        pool, spec = make_setup()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        adversary = ByzantineAdversary(
            {0, 1}, {0: mute(), 1: garbage()}
        )
        execution = spec.run(txs, adversary)
        agreed = decisions(execution)
        # Leader 2 is the only correct designated sender left.
        assert agreed == {txs[2]}


class TestFallbackBranch:
    def test_combine_falls_back_when_nothing_valid(self):
        """Unreachable in well-formed runs (some designated leader is
        correct and proposes a valid transaction), but the combinator
        must stay total on adversarial vectors."""
        pool, spec = make_setup()
        machine = spec.factory(0, pool.issue(0, "tx"))
        fallback = machine.fallback
        result = machine.combine(("junk", None, 42))
        assert result == fallback

    def test_validators_cannot_decide_unseen_transactions(self):
        """The §4.3 point: deciding tx requires knowing tx.  In the
        simulation this is structural — a decision is always one of the
        broadcast outputs, and broadcast outputs of correct runs are the
        leaders' actual proposals."""
        pool, spec = make_setup()
        txs = [pool.issue(client, f"tx-{client}") for client in range(5)]
        execution = spec.run(txs)
        decided = next(iter(decisions(execution)))
        assert decided in txs  # never an out-of-thin-air transaction


class TestCorollaryOneHypothesis:
    def test_two_fully_correct_executions_decide_differently(self):
        """The hypothesis of Corollary 1 holds for this algorithm."""
        pool, spec = make_setup()
        txs_a = [pool.issue(client, "workload-A") for client in range(5)]
        txs_b = [pool.issue(client, "workload-B") for client in range(5)]
        decision_a = decisions(spec.run(txs_a))
        decision_b = decisions(spec.run(txs_b))
        assert decision_a != decision_b
