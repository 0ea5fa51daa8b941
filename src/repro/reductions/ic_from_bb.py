"""Interactive consistency from n parallel Byzantine broadcasts (§6, [88]).

The classical composition the related-work section recalls: run one
Byzantine broadcast per process (each broadcasting its own proposal) and
decide the vector of the ``n`` outputs.  IC-Validity follows from Sender
Validity instance-wise; Agreement and Termination are instance-wise too.

This library's authenticated IC
(:func:`repro.protocols.interactive_consistency.authenticated_ic_spec`)
*is* this construction, built over Dolev–Strong; the functions here exist
to name the reduction explicitly and to expose the per-instance accounting
used by experiment E7 (message complexity of IC ≈ n × that of one
broadcast, under multiplexing exactly that of the busiest round pattern).
"""

from __future__ import annotations

from repro.protocols.base import ProtocolSpec
from repro.protocols.dolev_strong import dolev_strong_spec
from repro.protocols.interactive_consistency import authenticated_ic_spec
from repro.sim.execution import Execution


def ic_from_broadcasts(
    n: int, t: int, *, seed: bytes | str = b"repro-ic"
) -> ProtocolSpec:
    """IC as the parallel composition of ``n`` Dolev–Strong broadcasts."""
    return authenticated_ic_spec(n, t, seed=seed).renamed(
        "ic-from-n-broadcasts"
    )


def single_broadcast_baseline(
    n: int, t: int, sender: int = 0, *, seed: bytes | str = b"repro-ic"
) -> ProtocolSpec:
    """One constituent broadcast, for per-instance cost comparison."""
    return dolev_strong_spec(n, t, sender=sender, seed=seed)


def amortization_ratio(
    ic_execution: Execution, bb_execution: Execution
) -> float:
    """Messages of composed IC per constituent broadcast.

    Multiplexing ``n`` broadcasts over shared physical messages means the
    composed protocol can use *fewer* than ``n ×`` the single-instance
    count — the amortization theme of [88, 97] in miniature.
    """
    single = bb_execution.message_complexity()
    if single == 0:
        return float("inf")
    return ic_execution.message_complexity() / single
