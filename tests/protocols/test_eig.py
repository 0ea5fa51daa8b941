"""Tests for EIG agreement (n > 3t): Agreement + Strong Validity."""

import copy
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzantine_strategies import garbage, mute, two_faced
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.protocols.base import RoundMemo
from repro.protocols.eig import (
    EIGProcess,
    _strict_majority,
    eig_consensus_spec,
    eig_vector_spec,
)
from repro.sim.adversary import ByzantineAdversary, CrashAdversary
from repro.sim.kernel import PrefixForker, fork_kernel, run_kernel
from repro.sim.simulator import SimulationConfig


def decisions(execution):
    return set(execution.correct_decisions().values())


class TestResilienceGuard:
    def test_rejects_n_at_most_3t(self):
        with pytest.raises(ValueError, match="n > 3t"):
            eig_consensus_spec(6, 2).factory(0, 0)

    def test_accepts_boundary(self):
        eig_consensus_spec(7, 2).factory(0, 0)


class TestFaultFree:
    def test_unanimous_proposals_decided(self):
        spec = eig_consensus_spec(4, 1)
        assert decisions(spec.run_uniform(1)) == {1}

    def test_majority_value_wins(self):
        spec = eig_consensus_spec(4, 1)
        assert decisions(spec.run([0, 1, 1, 1])) == {1}

    def test_common_vector(self):
        spec = eig_vector_spec(4, 1)
        execution = spec.run([3, 1, 4, 1])
        assert decisions(execution) == {(3, 1, 4, 1)}


class TestDeeperTree:
    def test_t_three_tree_resolution(self):
        """t = 3 exercises three levels of recursive majority."""
        spec = eig_consensus_spec(10, 3)
        execution = spec.run([0, 1] * 5)
        assert decisions(execution) == {0} or decisions(
            execution
        ) == {1}
        assert len(decisions(execution)) == 1

    def test_t_three_under_attack(self):
        spec = eig_consensus_spec(10, 3)
        adversary = ByzantineAdversary(
            {7, 8, 9},
            {7: two_faced(0, 1), 8: mute(), 9: garbage()},
        )
        execution = spec.run([1] * 7 + [0, 0, 0], adversary)
        assert decisions(execution) == {1}


class TestByzantine:
    def test_agreement_under_two_faced(self):
        spec = eig_consensus_spec(7, 2)
        adversary = ByzantineAdversary(
            {5, 6},
            {5: two_faced(0, 1), 6: two_faced(1, 0)},
        )
        execution = spec.run([0, 0, 0, 1, 1, 0, 1], adversary)
        assert len(decisions(execution)) == 1

    def test_strong_validity_under_mute(self):
        spec = eig_consensus_spec(7, 2)
        adversary = ByzantineAdversary({5, 6}, {5: mute(), 6: mute()})
        execution = spec.run([1, 1, 1, 1, 1, 0, 0], adversary)
        assert decisions(execution) == {1}

    def test_strong_validity_under_garbage(self):
        spec = eig_consensus_spec(4, 1)
        adversary = ByzantineAdversary({3}, {3: garbage()})
        execution = spec.run([1, 1, 1, 0], adversary)
        assert decisions(execution) == {1}

    def test_vector_mode_ic_validity(self):
        """IC-Validity: correct slots hold the correct proposals."""
        spec = eig_vector_spec(7, 2)
        adversary = ByzantineAdversary(
            {5, 6}, {5: two_faced(0, 1), 6: mute()}
        )
        execution = spec.run([0, 1, 0, 1, 0, 1, 0], adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        vector = next(iter(agreed))
        for pid in range(5):  # the correct processes
            assert vector[pid] == execution.proposals()[pid]

    def test_crash_faults(self):
        spec = eig_consensus_spec(4, 1)
        execution = spec.run([1, 1, 1, 1], CrashAdversary({2: 2}))
        assert decisions(execution) == {1}

    @settings(max_examples=20, deadline=None)
    @given(
        proposals=st.lists(
            st.integers(0, 1), min_size=4, max_size=4
        ),
        strategy_pick=st.sampled_from(["mute", "garbage", "two-faced"]),
        corrupt=st.integers(0, 3),
    )
    def test_agreement_property(self, proposals, strategy_pick, corrupt):
        """Property: one Byzantine process never splits n=4, t=1 EIG."""
        strategies = {
            "mute": mute(),
            "garbage": garbage(),
            "two-faced": two_faced(0, 1),
        }
        spec = eig_consensus_spec(4, 1)
        adversary = ByzantineAdversary(
            {corrupt}, {corrupt: strategies[strategy_pick]}
        )
        execution = spec.run(proposals, adversary)
        agreed = decisions(execution)
        assert len(agreed) == 1
        assert None not in agreed
        # Strong validity among the correct.
        correct_proposals = {
            proposals[pid] for pid in execution.correct
        }
        if len(correct_proposals) == 1:
            assert agreed == correct_proposals


def oracle_absorb(val, round_, sender, payload, n):
    """The per-receiver, per-entry validator EIG used before the memo."""
    if not isinstance(payload, tuple):
        return
    for entry in payload:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            continue
        label, value = entry
        if not isinstance(label, tuple):
            continue
        if len(label) != round_ - 1:
            continue
        if any(
            not isinstance(element, int) or not 0 <= element < n
            for element in label
        ):
            continue
        if len(set(label)) != len(label):
            continue
        if sender in label:
            continue
        key = label + (sender,)
        if key not in val:
            val[key] = value


def oracle_deliver(val, round_, received, n):
    for sender, payload in sorted(received.items()):
        oracle_absorb(val, round_, sender, payload, n)


def same_tree(left, right):
    """Equal trees whose keys are also the same *types* element-wise
    (``(True, 3) == (1, 3)``, but only one of them is what was sent)."""
    assert left == right
    assert [tuple(map(type, key)) for key in left] == [
        tuple(map(type, key)) for key in right
    ]


N, T = 7, 2

scalars = st.one_of(
    st.integers(-1, N),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=2),
)
labels = st.one_of(
    st.tuples(),
    st.lists(st.integers(-1, N), max_size=3).map(tuple),
    st.lists(scalars, max_size=3).map(tuple),
    st.lists(st.integers(0, N - 1), max_size=3),
    scalars,
)
well_formed = st.tuples(
    st.lists(st.integers(0, N - 1), max_size=T - 1, unique=True).map(tuple),
    scalars,
)
entries = st.one_of(
    well_formed,
    st.tuples(labels, scalars),
    st.tuples(labels),
    st.tuples(labels, scalars, scalars),
    scalars,
)
payloads = st.one_of(
    st.lists(well_formed, min_size=1, max_size=4).map(tuple),
    st.lists(entries, max_size=6).map(tuple),
    st.lists(entries, max_size=3),
    scalars,
)


class TestPayloadMemo:
    """Validating a payload once gives every receiver today's tree."""

    @settings(max_examples=150, deadline=None)
    @given(
        round_=st.integers(1, T),
        pool=st.lists(payloads, min_size=1, max_size=4),
        picks=st.lists(
            st.tuples(st.integers(3, N - 1), st.integers(0, 3)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_garbage_builds_the_oracle_tree(self, round_, pool, picks):
        """Receivers 0..2 share one memo and the same payload objects
        (one object may come from several senders)."""
        memo = RoundMemo()
        machines = [
            EIGProcess(pid, N, T, 0, memo=memo) for pid in range(3)
        ]
        for pid, machine in enumerate(machines):
            received = {
                sender: pool[index % len(pool)]
                for sender, index in picks
                if (sender + index + pid) % 3
            }
            expected = {}
            oracle_deliver(expected, round_, received, N)
            machine.deliver(round_, received)
            same_tree(machine._val, expected)

    def test_one_payload_from_two_senders(self):
        memo = RoundMemo()
        relay = (((1,), "a"), ((3,), "b"))
        machine = EIGProcess(0, N, T, 0, memo=memo)
        machine.deliver(2, {3: relay, 4: relay})
        assert machine._val == {(1, 3): "a", (1, 4): "a", (3, 4): "b"}

    def test_equal_but_not_identical_payloads_are_validated_alone(self):
        """A three-faced sender: a correct relay to p0, and ``==`` ones
        with a float label to p1 and a ``True`` label to p2."""
        honest = (((1,), "a"), ((2,), "b"))
        floated = (((1.0,), "a"), ((2,), "b"))
        boolean = (((True,), "a"), ((2,), "b"))
        assert honest == floated == boolean
        memo = RoundMemo()
        machines = [EIGProcess(pid, N, T, 0, memo=memo) for pid in range(3)]
        for machine, payload in zip(machines, (honest, floated, boolean)):
            machine.deliver(2, {4: payload})
            expected = {}
            oracle_deliver(expected, 2, {4: payload}, N)
            same_tree(machine._val, expected)
        assert machines[0]._val == {(1, 4): "a", (2, 4): "b"}
        # The float label is rejected; ``(True,)`` fills today's (1,) slot.
        assert machines[1]._val == {(2, 4): "b"}
        assert next(iter(machines[2]._val))[0] is True

    @pytest.mark.parametrize(
        "spec", [eig_consensus_spec(7, 2), eig_vector_spec(4, 1)]
    )
    def test_memo_holds_one_round_after_a_run(self, spec):
        execution = spec.run([pid % 2 for pid in range(spec.n)])
        memo = spec.factory(0, 0)._memo
        assert memo.round == spec.rounds
        assert 0 < len(memo.entries) <= spec.n
        last_round = [
            message.payload
            for message in execution.messages_in_round(spec.rounds)
        ]
        for payload, _sender, _accepted in memo.entries.values():
            assert any(payload is sent for sent in last_round)
            assert all(
                len(label) == spec.rounds - 1 for label, _ in payload
            )

    def test_deep_copies_share_one_empty_memo(self):
        spec = eig_consensus_spec(4, 1)
        machines = [spec.factory(pid, 0) for pid in range(4)]
        machines[0].deliver(1, {1: (((), 0),)})
        assert machines[0]._memo.entries
        copied = copy.deepcopy(machines)
        memos = {id(machine._memo) for machine in copied}
        assert len(memos) == 1
        assert copied[0]._memo is not machines[0]._memo
        assert not copied[0]._memo.entries
        assert copied[0]._val == machines[0]._val

    @pytest.mark.parametrize("isolated_from", [None, 1, 2, 3])
    def test_forked_machines_finish_like_fresh_ones(self, isolated_from):
        """``PrefixForker`` deep-copies machines mid-run; resumed from
        every round they end with today's decisions and trees."""
        spec = eig_consensus_spec(7, 2)
        proposals = [pid % 2 for pid in range(spec.n)]
        config = SimulationConfig(n=spec.n, t=spec.t, rounds=spec.rounds)
        base = run_kernel(
            config, proposals, spec.factory, compile_omissions(None, 7)
        )
        adversary = (
            None
            if isolated_from is None
            else isolate_group({5, 6}, isolated_from)
        )
        compiled = compile_omissions(adversary, spec.n)
        fresh = [spec.factory(pid, proposals[pid]) for pid in range(7)]
        reference = fork_kernel(config, fresh, compiled, base, 1)
        forker = PrefixForker(config, proposals, spec.factory, base)
        for round_ in range(1, (isolated_from or spec.rounds) + 1):
            machines, _ = forker.machines_at(round_)
            assert machines is not None
            trace = fork_kernel(config, machines, compiled, base, round_)
            assert trace.decisions() == reference.decisions()
            for machine, expected in zip(machines, fresh):
                same_tree(machine._val, expected._val)


def sorted_majority(values, default):
    """``_strict_majority`` as first written: candidates sorted by repr."""
    counts = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    for value, count in sorted(
        counts.items(), key=lambda item: repr(item[0])
    ):
        if count * 2 > len(values):
            return value
    return default


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([0, 1, True, False, "1", None, (0,), (1, 0), ()]),
        max_size=9,
    )
)
def test_strict_majority_needs_no_order(values):
    default = object()
    got = _strict_majority(values, default=default)
    expected = sorted_majority(values, default)
    assert got is expected or (
        type(got) is type(expected) and got == expected
    )


def newval_reference(machine, label):
    """The recursive resolution EIG used before the bottom-up fold."""
    if len(label) == machine.t + 1:
        return machine._val.get(label, machine.default)
    children = [
        newval_reference(machine, label + (j,))
        for j in range(machine.n)
        if j not in label
    ]
    return _strict_majority(children, default=machine.default)


class TestBottomUpResolution:
    """Folding the leaves level by level resolves the tree the recursion
    resolved, whatever the tree holds."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 3),
        extra=st.integers(0, 1),
        default=st.sampled_from([0, 1, "default"]),
        palette=st.lists(
            st.sampled_from([0, 1, 2, "x", None, ("v", 1)]),
            min_size=1,
            max_size=3,
        ),
        fill=st.floats(0, 1),
        rng=st.randoms(use_true_random=False),
    )
    def test_fold_equals_recursion(
        self, t, extra, default, palette, fill, rng
    ):
        n = 3 * t + 1 + extra
        machine = EIGProcess(0, n, t, 0, default=default)
        # Every level is filled, as a run fills it; only leaves count.
        for depth in range(1, t + 2):
            for label in permutations(range(n), depth):
                if rng.random() < fill:
                    machine._val[label] = rng.choice(palette)
        expected = [newval_reference(machine, (j,)) for j in range(n)]
        assert machine.resolved_vector() == expected

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_full_tree_of_one_value(self, t):
        n = 3 * t + 1
        machine = EIGProcess(0, n, t, 0)
        for label in permutations(range(n), t + 1):
            machine._val[label] = label[0] % 2 or "even"
        assert machine.resolved_vector() == [
            newval_reference(machine, (j,)) for j in range(n)
        ] == [j % 2 or "even" for j in range(n)]
