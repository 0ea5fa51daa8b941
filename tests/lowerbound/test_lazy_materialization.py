"""The mask-path driver materializes a trace only where fragments are needed.

Most of the proof reads decisions, which a
:class:`~repro.sim.kernel.KernelTrace` answers from its masks.  An
:class:`~repro.sim.execution.Execution` is built only for the merge
inputs, the Lemma-2 swap source and the witness (and the certificate,
off here).  This pins that: every materialized trace reaches one of
those consumers, no trace is materialized twice, and the fault-free
runs — which used to be materialized just to be checked — are
materialized only when they become the witness.
"""

import pytest

import repro.lowerbound.driver as driver_module
from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.sim.kernel import KernelTrace

SIZES = [(12, 8), (13, 8), (16, 12)]


@pytest.mark.parametrize("n, t", SIZES, ids=[f"n{n}-t{t}" for n, t in SIZES])
@pytest.mark.parametrize("name", sorted(CHEATERS))
def test_only_boundary_traces_materialize(monkeypatch, name, n, t):
    materialized: list[KernelTrace] = []
    consumed: list = []
    materialize = KernelTrace._materialize
    merge = driver_module.merge
    swap = driver_module.swap_omission_checked

    def counting_materialize(trace):
        materialized.append(trace)
        return materialize(trace)

    def spying_merge(spec, left, right, factory):
        consumed.extend((left, right))
        return merge(spec, left, right, factory)

    def spying_swap(execution, pid):
        consumed.append(execution)
        return swap(execution, pid)

    monkeypatch.setattr(KernelTrace, "_materialize", counting_materialize)
    monkeypatch.setattr(driver_module, "merge", spying_merge)
    monkeypatch.setattr(driver_module, "swap_omission_checked", spying_swap)

    outcome = attack_weak_consensus(CHEATERS[name](n, t), certify=False)

    assert outcome.found_violation
    witness = outcome.witness.execution
    consumed.append(witness)
    assert len({id(trace) for trace in materialized}) == len(materialized)
    for trace in materialized:
        execution = trace.to_execution()
        assert any(execution is used for used in consumed), (
            f"materialized a trace (faulty {sorted(trace.corrupted)}) "
            "that no merge, swap or witness used"
        )
        if not trace.corrupted:
            assert execution is witness, (
                "a fault-free trace was materialized without becoming "
                "the witness"
            )
