"""Protocol specifications: algorithms as first-class values.

A :class:`ProtocolSpec` bundles everything the simulator, the reductions
(§4.2, §5.2) and the lower-bound driver (§3) need to know about an
algorithm 𝒜:

* a :class:`~repro.sim.process.ProcessFactory` building honest machines;
* the system size ``(n, t)`` the instance is configured for;
* a sound decision horizon ``rounds`` (all correct processes of a correct
  algorithm decide within it — the finite stand-in for the paper's
  infinite executions);
* whether the algorithm is authenticated (§5.1);
* the value domains it works over.

Everything downstream is parameterized on specs, so a reduction is just a
function ``ProtocolSpec -> ProtocolSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Sequence

from repro.sim.adversary import Adversary
from repro.sim.engine import RoundObserver
from repro.sim.execution import Execution
from repro.sim.process import Process, ProcessFactory
from repro.sim.simulator import SimulationConfig, run_execution
from repro.types import Payload, Round, validate_system_size


@dataclass(frozen=True)
class ProtocolSpec:
    """An agreement algorithm instance, ready to run.

    Attributes:
        name: human-readable protocol name (for reports).
        n: number of processes.
        t: tolerated corruptions.
        rounds: sound decision horizon for correct runs of this algorithm.
        factory: builds the honest machine for ``(pid, proposal)``.
        authenticated: whether the algorithm uses signatures (§5.1).
    """

    name: str
    n: int
    t: int
    rounds: int
    factory: ProcessFactory
    authenticated: bool = False

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        if self.rounds < 1:
            raise ValueError(f"horizon must be >= 1, got {self.rounds}")

    def run(
        self,
        proposals: Sequence[Payload],
        adversary: Adversary | None = None,
        *,
        rounds: int | None = None,
        check: bool = True,
        observers: Sequence[RoundObserver] = (),
        early_stop: bool = False,
    ) -> Execution:
        """Simulate one execution of this protocol.

        Args:
            proposals: per-process proposals.
            adversary: static adversary (``None``: no faults).
            rounds: horizon override (defaults to the spec's sound bound).
            check: run the model validity checker on the trace.
            observers: extra engine observers (e.g. a
                :class:`~repro.obs.tracer.RoundTraceObserver`).
            early_stop: halt once all correct processes decided; the
                truncated trace is a prefix of the full run with the same
                decisions.
        """
        config = SimulationConfig(
            n=self.n,
            t=self.t,
            rounds=self.rounds if rounds is None else rounds,
            check=check,
        )
        return run_execution(
            config,
            proposals,
            self.factory,
            adversary,
            observers=observers,
            early_stop=early_stop,
        )

    def run_uniform(
        self,
        proposal: Payload,
        adversary: Adversary | None = None,
        *,
        rounds: int | None = None,
        check: bool = True,
        observers: Sequence[RoundObserver] = (),
        early_stop: bool = False,
    ) -> Execution:
        """Simulate with every process proposing ``proposal``."""
        return self.run(
            [proposal] * self.n,
            adversary,
            rounds=rounds,
            check=check,
            observers=observers,
            early_stop=early_stop,
        )

    def renamed(self, name: str) -> "ProtocolSpec":
        """A copy of this spec under a different display name."""
        return replace(self, name=name)


SpecBuilder = Callable[[int, int], ProtocolSpec]
"""Builds a protocol spec for a given ``(n, t)`` — used by sweep harnesses."""


class DelegatingProcess(Process):
    """A machine forwarding all messaging to an inner machine.

    The base building block of the reduction combinators (§4.2, §5.2):
    a reduction changes what is *proposed to* and *decided from* the inner
    algorithm but adds no communication of its own, so ``outgoing`` and
    ``deliver`` delegate verbatim.  Subclasses override
    :meth:`translate_decision` to map inner decisions to outer ones.
    """

    def __init__(self, inner: Process, outer_proposal: Payload) -> None:
        super().__init__(inner.pid, inner.n, inner.t, outer_proposal)
        self.inner = inner

    def outgoing(self, round_):  # noqa: D102 - delegation, see class doc
        return self.inner.outgoing(round_)

    def deliver(self, round_, received):  # noqa: D102
        self.inner.deliver(round_, received)
        inner_decision = self.inner.decision
        if inner_decision is not None and self.decision is None:
            self.decide(self.translate_decision(inner_decision))

    def translate_decision(self, inner_decision: Payload) -> Payload:
        """Map the inner algorithm's decision to the outer problem's."""
        return inner_decision


class RoundMemo:
    """Results derived from relayed objects, for one round at a time.

    Shared by the processes of one spec.  A correct sender hands the
    *same* object to all ``n - 1`` receivers, so a result that depends
    only on ``(object, tag, round)`` — the tag names whatever else it
    depends on, e.g. the sender — is computed by the first receiver and
    reused by the rest.  Entries are keyed by ``(id(object), tag)``, not
    by equality (a Byzantine object equal to a correct one must be
    judged on its own), and keep the object, so its id cannot be reused
    while the entry lives.  The memo is cleared whenever the round
    changes, and a deep copy of it is empty: copied machines recompute
    rather than trust ids of objects they do not hold.
    """

    __slots__ = ("round", "entries")

    def __init__(self) -> None:
        self.round: Round = 0
        self.entries: dict[
            tuple[int, Hashable], tuple[Any, Hashable, Any]
        ] = {}

    def __deepcopy__(self, memo: dict) -> RoundMemo:
        return RoundMemo()

    def get(
        self,
        round_: Round,
        obj: Any,
        tag: Hashable,
        compute: Callable[..., Any],
        *args: Any,
    ) -> Any:
        """``compute(*args)``, computed once per ``(obj, tag)`` this round.

        The result is shared with every other caller: read, never write.
        """
        if round_ != self.round:
            self.entries.clear()
            self.round = round_
        key = (id(obj), tag)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = (obj, tag, compute(*args))
        return entry[2]
