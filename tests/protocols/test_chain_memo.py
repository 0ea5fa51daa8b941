"""The shared chain-verdict memo of Dolev–Strong and authenticated IC.

Mirrors ``test_eig.py::TestPayloadMemo``: a spec's processes share one
:class:`~repro.protocols.base.RoundMemo`, so a relayed chain is verified
once per round, and every receiver still ends where a process verifying
alone would.
"""

import contextlib
import copy
import io

import pytest

from byzantine_strategies import equivocating_sender
import repro.protocols.dolev_strong as dolev_strong_module

from repro.crypto.chains import SignedChain, start_chain, verify_chain
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.base import RoundMemo
from repro.protocols.dolev_strong import (
    DolevStrongProcess,
    dolev_strong_spec,
    scheme_for_spec,
)
from repro.protocols.interactive_consistency import authenticated_ic_spec
from repro.sim.adversary import (
    ByzantineAdversary,
    OmissionSchedule,
    ScheduledOmissionAdversary,
)
from repro.sim.kernel import PrefixForker, fork_kernel, run_kernel
from repro.sim.simulator import SimulationConfig


def memos_of(machine):
    """The memos a Dolev–Strong or IC machine verifies chains through."""
    subs = getattr(machine, "_subs", [machine])
    return {id(sub._memo): sub._memo for sub in subs}


def scheme_of(spec):
    machine = spec.factory(0, 0)
    return getattr(machine, "_subs", [machine])[0].scheme


def chains_in(payload):
    """Every chain object inside a (possibly multiplexed) payload."""
    if isinstance(payload, SignedChain):
        yield payload
    elif isinstance(payload, tuple):
        for part in payload:
            yield from chains_in(part)


def extracted(machine):
    subs = getattr(machine, "_subs", [machine])
    return [sub.extracted for sub in subs]


def sender_reaches_low_half():
    return ScheduledOmissionAdversary(
        {0},
        OmissionSchedule(
            send_drops=lambda m: m.round == 1 and m.receiver >= 3,
            receive_drops=lambda m: False,
        ),
    )


class TestChainMemo:
    def test_equal_but_not_identical_chain_is_verified_alone(self):
        """``SignedChain("ds", True, sigs) == SignedChain("ds", 1, sigs)``,
        but only the chain on ``1`` was signed."""
        spec = dolev_strong_spec(4, 1)
        scheme = scheme_for_spec(4)
        honest = start_chain(scheme.signer_for(0), "ds", 1)
        forged = SignedChain("ds", True, honest.signatures)
        assert honest == forged
        receivers = [spec.factory(pid, 0) for pid in (1, 2)]
        receivers[0].deliver(1, {0: (honest,)})
        receivers[1].deliver(1, {0: (forged,)})
        assert receivers[0].extracted == {1: honest}
        assert receivers[1].extracted == {}
        assert not verify_chain(scheme, forged, 0)
        (memo,) = memos_of(receivers[0]).values()
        assert memo is receivers[1]._memo
        assert len(memo.entries) == 2

    def test_one_chain_under_two_senders_gets_two_verdicts(self):
        """The IC shape: sub-broadcasts with different designated
        senders share one memo, and one chain object reaches both."""
        scheme = scheme_for_spec(4)
        memo = RoundMemo()
        chain = start_chain(scheme.signer_for(0), ("ic", 0), "v")
        subs = [
            DolevStrongProcess(
                2, 4, 1, 0, sender=sender, scheme=scheme,
                signer=scheme.signer_for(2), instance=("ic", 0), memo=memo,
            )
            for sender in (0, 1)
        ]
        for sub in subs:
            sub.deliver(1, {3: (chain,)})
        assert subs[0].extracted == {"v": chain}
        assert subs[1].extracted == {}
        assert sorted(
            (tag, verdict) for _, tag, verdict in memo.entries.values()
        ) == [(0, True), (1, False)]

    def test_ic_shares_one_memo_across_sub_instances(self):
        spec = authenticated_ic_spec(4, 1)
        machines = [spec.factory(pid, pid) for pid in range(4)]
        shared = {
            key for machine in machines for key in memos_of(machine)
        }
        assert len(shared) == 1

    @pytest.mark.parametrize(
        "spec, adversary",
        [
            (dolev_strong_spec(6, 2), None),
            (dolev_strong_spec(6, 2), sender_reaches_low_half()),
            (
                dolev_strong_spec(6, 2),
                ByzantineAdversary(
                    {0},
                    {0: equivocating_sender(scheme_for_spec(6), "a", "b")},
                ),
            ),
            (authenticated_ic_spec(5, 2), None),
            (authenticated_ic_spec(5, 2), sender_reaches_low_half()),
        ],
    )
    def test_memo_holds_one_round_after_a_run(self, spec, adversary):
        execution = spec.run(
            [f"v{pid}" for pid in range(spec.n)], adversary
        )
        (memo,) = memos_of(spec.factory(0, 0)).values()
        assert memo.entries
        sent = [
            chain
            for message in execution.messages_in_round(memo.round)
            for chain in chains_in(message.payload)
        ]
        for chain, tag, verdict in memo.entries.values():
            assert any(chain is relayed for relayed in sent)
            assert verdict == verify_chain(
                scheme_of(spec), chain, tag, minimum_length=memo.round
            )
        if adversary is not None:
            assert memo.round == 2

    def test_deep_copies_share_one_empty_memo(self):
        spec = authenticated_ic_spec(4, 1)
        machines = [spec.factory(pid, pid) for pid in range(4)]
        round_one = {
            pid: machine.outgoing(1)[1]
            for pid, machine in enumerate(machines)
            if pid != 1
        }
        machines[1].deliver(1, round_one)
        (memo,) = memos_of(machines[1]).values()
        assert memo.entries
        copied = copy.deepcopy(machines)
        memos = {
            key for machine in copied for key in memos_of(machine)
        }
        assert len(memos) == 1
        (copied_memo,) = memos_of(copied[0]).values()
        assert copied_memo is not memo
        assert not copied_memo.entries
        assert extracted(copied[1]) == extracted(machines[1])

    @pytest.mark.parametrize(
        "spec", [dolev_strong_spec(7, 2), authenticated_ic_spec(7, 2)]
    )
    @pytest.mark.parametrize("isolated_from", [None, 1, 2, 3])
    def test_forked_machines_finish_like_fresh_ones(
        self, spec, isolated_from
    ):
        """``PrefixForker`` deep-copies machines mid-run; resumed from
        every round they end with today's decisions and chains."""
        proposals = [f"v{pid % 2}" for pid in range(spec.n)]
        config = SimulationConfig(n=spec.n, t=spec.t, rounds=spec.rounds)
        base = run_kernel(
            config, proposals, spec.factory, compile_omissions(None, spec.n)
        )
        adversary = (
            None
            if isolated_from is None
            else isolate_group({5, 6}, isolated_from)
        )
        compiled = compile_omissions(adversary, spec.n)
        fresh = [
            spec.factory(pid, proposals[pid]) for pid in range(spec.n)
        ]
        reference = fork_kernel(config, fresh, compiled, base, 1)
        forker = PrefixForker(config, proposals, spec.factory, base)
        for round_ in range(1, (isolated_from or spec.rounds) + 1):
            machines, _ = forker.machines_at(round_)
            assert machines is not None
            trace = fork_kernel(config, machines, compiled, base, round_)
            assert trace.decisions() == reference.decisions()
            for machine, expected in zip(machines, fresh):
                assert extracted(machine) == extracted(expected)


def test_repro_all_verifies_each_relayed_chain_once(monkeypatch):
    """Every receiver used to verify every relayed chain: 3,092
    ``verify_chain`` calls per ``repro all``; one verdict per chain,
    sender and round leaves 441."""
    from repro.cli import main

    calls = []

    def counted(*args):
        calls.append(args)
        return verify_chain(*args)

    monkeypatch.setattr(dolev_strong_module, "verify_chain", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["all"]) == 0
    assert 0 < len(calls) <= 600
