"""Differential tests: the mask swap and merge vs the object constructions.

The lower-bound driver runs Algorithm 4 and Algorithm 5 on kernel traces
(:func:`~repro.omission.swap.swap_trace`,
:func:`~repro.omission.merge.merge_traces`).  Their claim is
representational: materialized, each result equals — fragment for
fragment — what the object construction (:func:`swap_omission`,
:func:`merge`) builds from the materialized inputs, and the checked
swap fails exactly when :func:`swap_omission_checked` does, with its
message (the driver logs it).  Enforced on Hypothesis-generated kernel
runs and on every swap and merge the driver performs in the E3 matrix;
a seeded mutant shows the property can fail.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lowerbound.driver as driver_module
from repro.errors import ModelViolation
from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.omission.merge import MergeSpec, merge, merge_traces
from repro.omission.swap import (
    swap_omission,
    swap_omission_checked,
    swap_trace,
    swap_trace_checked,
)
from repro.protocols.phase_king import phase_king_spec
from repro.protocols.subquadratic import (
    committee_cheater_spec,
    leader_echo_spec,
    ring_token_spec,
)
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.kernel import KernelTrace, mask_members, run_kernel
from repro.sim.simulator import SimulationConfig

SPECS = (
    lambda: phase_king_spec(7, 2),
    lambda: broadcast_weak_consensus_spec(8, 4),
    lambda: leader_echo_spec(8, 4),
    lambda: committee_cheater_spec(10, 6),
    lambda: ring_token_spec(12, 8),
)

E3_CELLS = [
    pytest.param(name, t, id=f"{name}-n{t + 4}-t{t}")
    for name in sorted(CHEATERS)
    for t in (8, 16, 24)
]


def isolated_run(spec, proposals, group, from_round):
    config = SimulationConfig(
        n=spec.n, t=spec.t, rounds=spec.rounds, check=True
    )
    compiled = compile_omissions(isolate_group(group, from_round), spec.n)
    return run_kernel(config, list(proposals), spec.factory, compiled)


def outgoing_messages(execution):
    return {
        id(message)
        for behavior in execution.behaviors
        for fragment in behavior
        for message in fragment.all_outgoing
    }


def swap_disagreements(trace, pid, swap=swap_trace):
    """How ``swap(trace, pid)`` differs from :func:`swap_omission` on
    the materialized trace (empty when they agree)."""
    # Swapped before the source is materialized, as in the driver: the
    # rows keep their messages for sharing from the swap on.
    swapped = swap(trace, pid)
    source = trace.to_execution()
    reference = swap_omission(source, pid)
    problems = []
    if swapped.corrupted != reference.faulty:
        problems.append(
            f"faulty {sorted(swapped.corrupted)} vs "
            f"{sorted(reference.faulty)}"
        )
    materialized = swapped.to_execution()
    if materialized != reference:
        problems.append("materialized swap differs from swap_omission")
    if swapped.message_complexity() != reference.message_complexity():
        problems.append("message complexity differs")
    if not outgoing_messages(materialized) <= outgoing_messages(source):
        problems.append("the swap materialized new Message objects")
    return problems


def checked_disagreements(trace, pid):
    """The checked swaps must fail alike or succeed alike."""
    try:
        mask = swap_trace_checked(trace, pid)
    except ModelViolation as error:
        mask = str(error)
    try:
        reference = swap_omission_checked(trace.to_execution(), pid)
    except ModelViolation as error:
        reference = str(error)
    if isinstance(mask, str) or isinstance(reference, str):
        return [] if mask == reference else [f"{mask!r} vs {reference!r}"]
    if mask.to_execution() != reference.execution:
        return ["checked swaps built different executions"]
    return []


def merge_disagreements(spec, trace_b, trace_c, factory, merge_fn=merge_traces):
    """How ``merge_fn`` differs from :func:`merge` of the materialized
    inputs (empty when they agree)."""
    reference = merge(
        spec, trace_b.to_execution(), trace_c.to_execution(), factory
    )
    merged = merge_fn(spec, trace_b, trace_c, factory)
    problems = []
    if merged.corrupted != reference.faulty:
        problems.append("faulty sets differ")
    if merged.to_execution() != reference:
        problems.append("materialized merge differs from merge")
    if merged.message_complexity() != reference.message_complexity():
        problems.append("message complexity differs")
    return problems


def swap_leaving_one_bit(trace, pid):
    """A mutant of :func:`swap_trace`: the first message ``pid``
    receive-omitted stays receive-omitted instead of moving to its
    sender."""
    bit = 1 << pid
    leaked = False
    rows = []
    for row in trace.rows:
        dropped = row.omit_masks[pid]
        kept = 0
        if dropped and not leaked:
            kept = dropped & -dropped
            dropped ^= kept
            leaked = True
        omit_masks = list(row.omit_masks)
        omit_masks[pid] = kept
        send_omit_masks = list(row.send_omit_masks)
        for sender in mask_members(dropped):
            send_omit_masks[sender] |= bit
        rows.append(row.with_omissions(send_omit_masks, omit_masks))
    omitting = frozenset(
        process
        for row in rows
        for process in range(trace.n)
        if row.omit_masks[process] or row.send_omit_masks[process]
    )
    return KernelTrace(trace.n, trace.t, trace.proposals, omitting, rows)


@st.composite
def swap_cases(draw):
    spec = draw(st.sampled_from(SPECS))()
    n = spec.n
    proposals = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    group = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=spec.t,
                 unique=True)
    )
    from_round = draw(st.integers(1, spec.rounds + 1))
    trace = isolated_run(spec, proposals, group, from_round)
    if draw(st.booleans()):
        # Swap a swapped trace: the source now holds send-omissions.
        trace = swap_trace(trace, draw(st.sampled_from(group)))
    pid = draw(st.sampled_from(sorted(group) + [draw(st.integers(0, n - 1))]))
    return trace, pid


@st.composite
def merge_cases(draw):
    spec = draw(st.sampled_from(SPECS))()
    n = spec.n
    members = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=spec.t,
                 unique=True)
    )
    split = draw(st.integers(1, len(members) - 1))
    group_b, group_c = frozenset(members[:split]), frozenset(members[split:])
    if draw(st.booleans()):
        round_b = round_c = 1
        bit_b, bit_c = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    else:
        round_b = draw(st.integers(1, spec.rounds + 1))
        round_c = max(1, round_b + draw(st.sampled_from((-1, 0, 1))))
        bit_b = bit_c = draw(st.integers(0, 1))
    trace_b = isolated_run(spec, [bit_b] * n, group_b, round_b)
    trace_c = isolated_run(spec, [bit_c] * n, group_c, round_c)
    merge_spec = MergeSpec(
        group_b=group_b, group_c=group_c, round_b=round_b, round_c=round_c
    )
    return merge_spec, trace_b, trace_c, spec.factory


@given(swap_cases())
@settings(max_examples=80, deadline=None)
def test_mask_swap_equals_object_swap(case):
    trace, pid = case
    assert swap_disagreements(trace, pid) == []
    assert checked_disagreements(trace, pid) == []


@given(merge_cases())
@settings(max_examples=60, deadline=None)
def test_mask_merge_equals_object_merge(case):
    assert merge_disagreements(*case) == []


@pytest.mark.parametrize("name, t", E3_CELLS)
def test_driver_constructions_equal_object_ones_on_e3(monkeypatch, name, t):
    """Every swap and merge of an E3 attack, replayed on objects."""
    swaps, merges = [], []

    def spying_swap(trace, pid):
        swaps.append((trace, pid))
        return swap_trace_checked(trace, pid)

    def spying_merge(spec, trace_b, trace_c, factory):
        merges.append((spec, trace_b, trace_c, factory))
        return merge_traces(spec, trace_b, trace_c, factory)

    monkeypatch.setattr(driver_module, "swap_trace_checked", spying_swap)
    monkeypatch.setattr(driver_module, "merge_traces", spying_merge)
    outcome = attack_weak_consensus(CHEATERS[name](t + 4, t))

    assert outcome.found_violation
    for trace, pid in swaps:
        assert swap_disagreements(trace, pid) == []
        assert checked_disagreements(trace, pid) == []
    for case in merges:
        assert merge_disagreements(*case) == []


def test_swap_leaving_one_bit_disagrees():
    """Mutation: a swap that leaves one receive-omit bit behind is
    caught by the property."""
    spec = leader_echo_spec(8, 4)
    trace = isolated_run(spec, [0] * 8, {7}, 1)
    assert any(row.omit_masks[7] for row in trace.rows)
    assert swap_disagreements(trace, 7) == []
    assert swap_disagreements(trace, 7, swap=swap_leaving_one_bit) != []
