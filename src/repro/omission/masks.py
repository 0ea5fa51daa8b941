"""Compiling omission adversaries to AND-masks (the kernel front-end).

The bitmask kernel (:mod:`repro.sim.kernel`) can only execute
adversaries whose omission pattern is *static and receiver-local*: a
per-receiver threshold round after which only an allowed-sender set gets
through, and no send-omissions at all.  That is exactly the shape of the
two adversaries the lower-bound driver uses — the no-fault adversary and
Definition-1 group isolation — so those compile; anything richer (method
overrides, scheduled omissions, Byzantine substitution) returns
``None``.  No caller falls back to another engine: the driver asserts
that its isolations compile, and
:func:`~repro.analysis.complexity.run_scenario` and
:class:`~repro.sim.kernel.KernelOracle` raise ``ValueError``.

Compilation is deliberately *nominal*: only the exact classes
:class:`~repro.sim.adversary.Adversary` (``NoFaults`` is an alias of it)
and :class:`~repro.omission.isolation.IsolationAdversary` are accepted,
because a subclass may override any behavior hook and silently mean
something else.  An unknown adversary is never guessed at.
"""

from __future__ import annotations

from repro.omission.isolation import IsolationAdversary
from repro.sim.adversary import Adversary
from repro.sim.kernel import CompiledOmissions, group_mask
from repro.types import Round


def compile_omissions(
    adversary: Adversary | None, n: int
) -> CompiledOmissions | None:
    """Compile ``adversary`` to AND-masks, or ``None`` if not possible.

    ``None`` as the adversary means no faults (matching the driver's
    convention of passing ``NoFaults()``).

    For an :class:`IsolationAdversary`, each member of an isolated group
    receives, from its group's isolation round on, only from fellow
    members — receivers outside every group are never restricted, and no
    sender is ever send-omitted, mirroring
    :meth:`IsolationAdversary.receive_omits` exactly.
    """
    if adversary is None:
        adversary = Adversary()
    if type(adversary) is Adversary:
        return CompiledOmissions(
            n=n,
            corrupted=adversary.corrupted,
            thresholds=(None,) * n,
            restricted=((1 << n) - 1,) * n,
        )
    if type(adversary) is IsolationAdversary:
        full = (1 << n) - 1
        thresholds: list[Round | None] = [None] * n
        restricted: list[int] = [full] * n
        for group, from_round in adversary.isolations.items():
            mask = group_mask(group)
            for pid in group:
                thresholds[pid] = from_round
                restricted[pid] = mask
        return CompiledOmissions(
            n=n,
            corrupted=adversary.corrupted,
            thresholds=tuple(thresholds),
            restricted=tuple(restricted),
        )
    return None
