"""Picklable sweep jobs and the builder-name registry they resolve.

A sweep cell is one ``(builder, n, t)`` configuration of an attack or
measurement.  Because :class:`~repro.protocols.base.ProtocolSpec` values
carry arbitrary process factories (closures — not picklable), jobs never
ship specs across process boundaries: a job carries only the *name* of a
registered spec builder plus the parameters, and each worker rebuilds the
spec locally via :func:`resolve_builder`.  Machines are deterministic, so
a worker-rebuilt spec produces bit-identical executions, witnesses and
verdicts to a locally built one — the cross-backend equivalence the
scheduler's tests enforce.

Job types:

* :class:`AttackJob` — run the full Lemma 2–5 lower-bound pipeline
  (:func:`~repro.lowerbound.driver.attack_weak_consensus`) on one cell;
  returns the :class:`~repro.lowerbound.driver.AttackOutcome` plus the
  worker's :class:`CacheStats`.
* :class:`MeasureJob` — run the E1/E7 message-complexity measurement
  (:func:`~repro.analysis.complexity.measure_point`) on one cell;
  returns a :class:`~repro.analysis.complexity.SweepPoint`.
* :class:`ClassifyJob` — run the Theorem-4 solvability classification
  (:func:`~repro.solvability.theorem.classify`) on one standard
  problem at ``(n, t)``; returns a compact, picklable
  :class:`ClassifyVerdict`.

Everything a job returns is wrapped in a :class:`JobResult` so the
scheduler can account wall time, cache counters and engine round counts
uniformly across job kinds.

:func:`execute_job` is the one way a job runs, inline or in a worker
process: it gives the job's ``run`` a tracer, times it, attaches the
cell's events, and turns a job's exception into the job's ``job.error``
body where the job ran.  A job with ``ledger=True`` is traced into a
private :class:`~repro.obs.ledger.RunLedger` whose events carry the cell's
label, and the segment travels home as picklable tuples
(``JobResult.events``); the scheduler splices the segments into one
ordered sweep ledger at gather.  Every worker count runs this code, so
the spliced event *order* — the ``(kind, name, cell_id)`` sequence — is
identical however many workers ran the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.ledger import LedgerEvent
    from repro.obs.tracer import Tracer


class UnknownBuilderError(ReproError):
    """A job named a spec builder the registry does not know."""


@dataclass(frozen=True)
class CacheStats:
    """Counters-only view of an :class:`ExecutionCache` — picklable.

    The cache's entries and fork states hold live machine snapshots and
    full execution traces; only these counters are shipped back from
    workers, and the scheduler sums them with :meth:`merged`.
    """

    hits: int = 0
    alias_hits: int = 0
    misses: int = 0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """The element-wise sum of two counter sets."""
        return CacheStats(
            hits=self.hits + other.hits,
            alias_hits=self.alias_hits + other.alias_hits,
            misses=self.misses + other.misses,
        )


def _correct_builders() -> dict[str, Callable[[int, int], Any]]:
    """The non-cheater builders every sweep layer shares."""
    from repro.protocols.dolev_strong import dolev_strong_spec
    from repro.protocols.interactive_consistency import (
        authenticated_ic_spec,
    )
    from repro.protocols.phase_king import phase_king_spec
    from repro.protocols.weak_consensus import (
        broadcast_weak_consensus_spec,
        naive_flooding_spec,
    )

    return {
        "correct": lambda n, t: broadcast_weak_consensus_spec(n, t),
        "weak-consensus": lambda n, t: broadcast_weak_consensus_spec(
            n, t
        ),
        "naive-flooding": lambda n, t: naive_flooding_spec(n, t),
        "dolev-strong": lambda n, t: dolev_strong_spec(n, t),
        "phase-king": lambda n, t: phase_king_spec(n, t),
        "ic": lambda n, t: authenticated_ic_spec(n, t),
    }


def resolve_builder(name: str) -> Callable[[int, int], Any]:
    """Resolve a registered builder name to its ``(n, t) -> spec`` callable.

    The registry is the union of the cheater registry
    (:data:`repro.experiments.CHEATERS`) and the correct-protocol
    builders shared with the CLI.  Imported lazily to keep this module —
    which :mod:`repro.experiments` itself imports — cycle-free.

    Raises:
        UnknownBuilderError: for unregistered names (in a worker this
            surfaces as a structured per-cell error, not a sweep abort).
    """
    from repro.experiments import CHEATERS

    if name in CHEATERS:
        return CHEATERS[name]
    correct = _correct_builders()
    if name in correct:
        return correct[name]
    known = sorted(set(CHEATERS) | set(correct))
    raise UnknownBuilderError(
        f"unknown spec builder {name!r}; registered: {', '.join(known)}"
    )


def problem_builders() -> dict[str, Callable[[int, int], Any]]:
    """The standard agreement problems :class:`ClassifyJob` resolves."""
    from repro.validity.standard import (
        byzantine_broadcast_problem,
        correct_proposal_problem,
        interactive_consistency_problem,
        strong_consensus_problem,
        weak_consensus_problem,
    )

    return {
        "weak": weak_consensus_problem,
        "strong": strong_consensus_problem,
        "broadcast": byzantine_broadcast_problem,
        "ic": interactive_consistency_problem,
        "correct-proposal": correct_proposal_problem,
    }


def resolve_problem(name: str) -> Callable[[int, int], Any]:
    """Resolve a standard problem name to its ``(n, t) -> problem``.

    Raises:
        UnknownBuilderError: for unregistered names, mirroring
            :func:`resolve_builder`.
    """
    problems = problem_builders()
    if name in problems:
        return problems[name]
    raise UnknownBuilderError(
        f"unknown standard problem {name!r}; registered: "
        f"{', '.join(sorted(problems))}"
    )


@dataclass(frozen=True)
class JobResult:
    """What one executed job sends back to the scheduler.

    Attributes:
        key: the job's ``(kind, builder, n, t)`` identity.
        value: the job's payload — an ``AttackOutcome`` or ``SweepPoint``.
        wall_seconds: the job's wall time inside the worker, set by
            :func:`execute_job`.
        cache: the worker's execution-cache counters (attack jobs only).
        rounds_simulated: engine rounds actually simulated.
        rounds_baseline: rounds a reuse-free pipeline would have run.
        certificate: the cell's schema-v2 attack certificate as
            canonical UTF-8 JSON bytes (certifying attack jobs only).  Shipped as bytes
            — not as the live :class:`~repro.certify.format.Certificate`
            — so the scheduler's gather step verifies *exactly* the
            artifact that crossed the process boundary, and so every
            worker count returns byte-identical evidence.
        events: the cell's run-ledger segment (``ledger=True`` jobs
            only) — a tuple of frozen
            :class:`~repro.obs.ledger.LedgerEvent` records the scheduler
            splices into the sweep ledger in cell order.
    """

    key: tuple[str, str, int, int]
    value: Any
    wall_seconds: float = 0.0
    cache: CacheStats | None = None
    rounds_simulated: int = 0
    rounds_baseline: int = 0
    certificate: bytes | None = None
    events: "tuple[LedgerEvent, ...] | None" = None


@dataclass(frozen=True)
class AttackJob:
    """One lower-bound attack cell, rebuildable in any worker process.

    The option fields mirror
    :func:`~repro.lowerbound.driver.attack_weak_consensus` defaults, so a
    default-constructed job is bit-identical to the historical serial
    sweep loop.
    """

    builder: str
    n: int
    t: int
    verify: bool = True
    check: bool = True
    early_stop: bool = True
    reuse: bool = True
    certify: bool = False
    ledger: bool = False

    @property
    def key(self) -> tuple[str, str, int, int]:
        """The cell identity ``("attack", builder, n, t)``."""
        return ("attack", self.builder, self.n, self.t)

    def run(self, tracer: "Tracer") -> JobResult:
        """Rebuild the spec and run the full attack pipeline.

        With ``certify`` the worker renders the attack certificate to
        canonical bytes and strips the live object off the outcome —
        the artifact travels once, as ``JobResult.certificate``, and the
        gather step re-verifies it before the sweep reports the cell.
        """
        from repro.lowerbound.driver import (
            ExecutionCache,
            attack_weak_consensus,
        )

        spec = resolve_builder(self.builder)(self.n, self.t)
        cache = ExecutionCache()
        outcome = attack_weak_consensus(
            spec,
            verify=self.verify,
            check=self.check,
            early_stop=self.early_stop,
            reuse=self.reuse,
            cache=cache,
            certify=self.certify,
            tracer=tracer,
        )
        certificate_bytes: bytes | None = None
        if outcome.certificate is not None:
            certificate_bytes = outcome.certificate.to_bytes()
            outcome = replace(outcome, certificate=None)
        return JobResult(
            key=self.key,
            value=outcome,
            cache=CacheStats(
                hits=cache.hits,
                alias_hits=cache.alias_hits,
                misses=cache.misses,
            ),
            rounds_simulated=outcome.rounds_simulated,
            rounds_baseline=outcome.rounds_baseline,
            certificate=certificate_bytes,
        )


@dataclass(frozen=True)
class MeasureJob:
    """One message-complexity measurement cell (the E1/E7 sweep kernel)."""

    builder: str
    n: int
    t: int
    include_mixed: bool = True
    ledger: bool = False

    @property
    def key(self) -> tuple[str, str, int, int]:
        """The cell identity ``("measure", builder, n, t)``."""
        return ("measure", self.builder, self.n, self.t)

    def run(self, tracer: "Tracer") -> JobResult:
        """Rebuild the spec and measure its worst message count.

        The measurement is a ``measure`` span, followed by its worst
        message count and floor ratio.
        """
        from repro.analysis.complexity import (
            measure_point,
            mixed_workload,
            uniform_workloads,
        )

        spec = resolve_builder(self.builder)(self.n, self.t)
        workloads = uniform_workloads(self.n)
        if self.include_mixed:
            workloads.append(mixed_workload(self.n))
        with tracer.span(
            "measure", builder=self.builder, n=self.n, t=self.t
        ):
            point = measure_point(spec, workloads)
        tracer.counter("measure.worst_messages", value=point.worst_messages)
        tracer.gauge("measure.vs_floor", value=point.ratio_to_floor)
        return JobResult(key=self.key, value=point)


@dataclass(frozen=True)
class ClassifyVerdict:
    """The distilled, picklable outcome of one solvability cell.

    The full :class:`~repro.solvability.theorem.SolvabilityReport`
    carries live property objects; jobs ship only the decided bits, the
    same reduction ``repro classify`` prints.
    """

    problem: str
    n: int
    t: int
    trivial: bool
    cc_holds: bool
    authenticated_solvable: bool
    unauthenticated_solvable: bool

    def render(self) -> str:
        """One verdict line (the ``repro classify`` shape, condensed)."""
        return (
            f"{self.problem} n={self.n} t={self.t} "
            f"trivial={'Y' if self.trivial else 'N'} "
            f"CC={'Y' if self.cc_holds else 'N'} "
            f"auth={'Y' if self.authenticated_solvable else 'N'} "
            f"unauth={'Y' if self.unauthenticated_solvable else 'N'}"
        )


@dataclass(frozen=True)
class ClassifyJob:
    """One Theorem-4 solvability classification cell.

    ``builder`` names a standard problem :func:`resolve_problem`
    knows — the registry role ``builder`` plays
    for the other job kinds, kept under the same field name so the
    ``(kind, builder, n, t)`` cell identity is uniform across kinds.
    """

    builder: str
    n: int
    t: int
    ledger: bool = False

    @property
    def key(self) -> tuple[str, str, int, int]:
        """The cell identity ``("classify", problem, n, t)``."""
        return ("classify", self.builder, self.n, self.t)

    def run(self, tracer: "Tracer") -> JobResult:
        """Rebuild the problem and classify it.

        The classification is a ``classify`` span, followed by whether
        the problem is solvable with signatures.
        """
        from repro.solvability.theorem import classify

        problem = resolve_problem(self.builder)(self.n, self.t)
        with tracer.span(
            "classify", problem=self.builder, n=self.n, t=self.t
        ):
            report = classify(problem)
        verdict = ClassifyVerdict(
            problem=self.builder,
            n=self.n,
            t=self.t,
            trivial=report.trivial,
            cc_holds=report.cc.holds,
            authenticated_solvable=report.authenticated_solvable,
            unauthenticated_solvable=report.unauthenticated_solvable,
        )
        tracer.counter(
            "classify.solvable",
            value=int(verdict.authenticated_solvable),
        )
        return JobResult(key=self.key, value=verdict)


SweepJob = AttackJob | MeasureJob | ClassifyJob
"""The union of job kinds a scheduler (and the job service) accepts."""


def execute_job(job: SweepJob) -> JobResult | dict[str, Any]:
    """Run one job, timed and (with ``job.ledger``) traced.

    The tracer is the shared no-op
    :data:`~repro.obs.tracer.NULL_TRACER`, or for a ``ledger=True``
    job a private :class:`~repro.obs.ledger.RunLedger` whose every
    event carries the cell's :func:`~repro.obs.ledger.cell_label`; its
    scratch run id is rewritten when the scheduler splices the segment
    into the sweep ledger.  Module-level (hence picklable) so
    :class:`concurrent.futures.ProcessPoolExecutor` can ship it; the
    scheduler's inline cells and the job server run it too.

    This is the one place a job's exception is caught.  A job that
    raises returns its ``job.error`` body
    (:func:`~repro.worldlog.codec.encode_job_error`, ``error_kind``
    ``"exception"``) instead: its traceback is formatted here, where
    the job ran, so a failure records the same ``message`` and
    ``detail`` inline, in a pool worker or in the server, and no
    exception the parent could not unpickle ever crosses a pool.
    """
    from repro.obs.ledger import RunLedger, cell_label
    from repro.obs.tracer import NULL_TRACER, LedgerTracer

    ledger = RunLedger() if job.ledger else None
    tracer = (
        NULL_TRACER
        if ledger is None
        else LedgerTracer(ledger, cell_id=cell_label(job.key))
    )
    begin = time.perf_counter()
    try:
        result = job.run(tracer)
    except Exception as exc:
        from repro.worldlog.codec import encode_job_error

        return encode_job_error(
            "exception", exc, time.perf_counter() - begin
        )
    return replace(
        result,
        wall_seconds=time.perf_counter() - begin,
        events=None if ledger is None else ledger.segment(),
    )
