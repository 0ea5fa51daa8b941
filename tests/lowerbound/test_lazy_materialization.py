"""The mask-path driver materializes a trace only where fragments are needed.

Every run of the proof is a :class:`~repro.sim.kernel.KernelTrace`, and
so are its constructions: Lemma 2's swap and the Lemma-3/5 merge work
on masks.  An :class:`~repro.sim.execution.Execution` is built only for
the witness and for the certificate tables.  This pins both sides of
that contract:

* an uncertified attack materializes exactly one trace, its witness's;
* a certified attack materializes exactly the traces its certificate
  embeds, each once.
"""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import attack_weak_consensus
from repro.sim.kernel import KernelTrace

SIZES = [(12, 8), (13, 8), (16, 12)]
CASES = [
    pytest.param(name, n, t, id=f"{name}-n{n}-t{t}")
    for name in sorted(CHEATERS)
    for n, t in SIZES
]


@pytest.fixture
def materialized(monkeypatch):
    """Every trace materialized while the test runs, in order."""
    traces: list[KernelTrace] = []
    materialize = KernelTrace._materialize

    def counting_materialize(trace):
        traces.append(trace)
        return materialize(trace)

    monkeypatch.setattr(KernelTrace, "_materialize", counting_materialize)
    return traces


@pytest.mark.parametrize("name, n, t", CASES)
def test_only_boundary_traces_materialize(materialized, name, n, t):
    outcome = attack_weak_consensus(CHEATERS[name](n, t), certify=False)

    assert outcome.found_violation
    assert len(materialized) == 1, (
        f"materialized {len(materialized)} traces; only the witness's "
        "should be"
    )
    assert materialized[0].to_execution() is outcome.witness.execution


@pytest.mark.parametrize("name, n, t", CASES)
def test_certified_attack_materializes_its_embedded_executions(
    materialized, name, n, t
):
    outcome = attack_weak_consensus(CHEATERS[name](n, t), certify=True)

    assert outcome.found_violation
    labels = outcome.certificate.execution_labels
    assert len({id(trace) for trace in materialized}) == len(materialized)
    assert len(materialized) == len(labels), (
        f"materialized {len(materialized)} traces for {len(labels)} "
        f"embedded executions {sorted(labels)}"
    )
    embedded = [outcome.certificate.execution(label) for label in labels]
    for trace in materialized:
        assert trace.to_execution() in embedded
    assert any(
        trace.to_execution() is outcome.witness.execution
        for trace in materialized
    )
