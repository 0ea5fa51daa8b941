"""The driver gives the same attack on either round engine.

``kernel="object"`` and ``kernel="mask"`` must agree on every compared
``AttackOutcome`` field, on the certificate bytes, and — when traced —
on the ``engine.round`` stream with its wall times scrubbed.  Tracing
must not change the engine: a traced mask run still builds masks.
"""

import pytest

from repro.experiments import CHEATERS
from repro.lowerbound.driver import LowerBoundDriver, attack_weak_consensus
from repro.obs.ledger import RunLedger
from repro.obs.tracer import NULL_TRACER, LedgerTracer
from repro.protocols.weak_consensus import broadcast_weak_consensus_spec
from repro.sim.engine import object_counts, object_counts_delta

CASES = [
    *((name, builder, 12, 8) for name, builder in sorted(CHEATERS.items())),
    ("correct", broadcast_weak_consensus_spec, 6, 4),
]


def _attack(builder, n, t, kernel, traced):
    ledger = RunLedger() if traced else None
    tracer = LedgerTracer(ledger) if traced else NULL_TRACER
    before = object_counts()
    outcome = attack_weak_consensus(
        builder(n, t), certify=True, tracer=tracer, kernel=kernel
    )
    masks = object_counts_delta(before)["masks_built"]
    rounds = [] if ledger is None else [
        (event.value, tuple(
            (key, value) for key, value in event.attrs if key != "seconds"
        ))
        for event in ledger.events
        if event.kind == "counter" and event.name == "engine.round"
    ]
    return outcome, rounds, masks


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "name, builder, n, t", CASES, ids=[case[0] for case in CASES]
)
def test_object_and_mask_engines_agree(name, builder, n, t, traced):
    obj, obj_rounds, obj_masks = _attack(builder, n, t, "object", traced)
    mask, mask_rounds, mask_masks = _attack(builder, n, t, "mask", traced)
    assert obj == mask
    assert obj.certificate.to_bytes() == mask.certificate.to_bytes()
    assert obj_rounds == mask_rounds
    if traced:
        assert len(mask_rounds) == mask.rounds_simulated
    assert obj_masks == 0
    assert mask_masks > 0


def test_kernel_accepts_only_object_or_mask():
    with pytest.raises(ValueError, match="'object' or 'mask'"):
        LowerBoundDriver(CHEATERS["silent"](8, 4), kernel="auto")
