"""The executable lower-bound argument (Lemmas 2–5, Theorem 2).

Given *any* candidate weak consensus algorithm (as a
:class:`~repro.protocols.base.ProtocolSpec`), the driver walks the paper's
proof as a concrete attack:

1. **Fault-free sanity** — the all-0 and all-1 executions must decide
   their proposals (Weak Validity + Termination); failures are immediate
   witnesses.
2. **Round-1 isolations** — run ``E_b^{G(1)}`` for both bits and both
   groups; in each, all correct processes must agree, and (Lemma 2) a
   majority of the isolated group must decide the correct processes' bit
   — otherwise the swap-omission construction is attempted to extract a
   witness.
3. **Lemma-3 consistency** — the four round-1 executions must share one
   correct-group decision ``d`` (they are pairwise mergeable).  On a
   mismatch, the two executions are *merged* (Algorithm 5) and the
   extraction runs inside the merged execution.
4. **Critical round** (Lemma 4) — with ``f = 1 - d``, scan
   ``E_f^{B(k)}`` for increasing ``k`` until the correct decision flips
   from ``d`` to ``f``; Lemma 2 is re-checked at every step.
5. **The final merge** (Lemma 5, Figure 2) — merge ``E_f^{B(R+1)}`` with
   ``E_f^{C(R)}``; group A's decision necessarily disagrees with the
   replayed majority of B or of C, and the extraction produces the
   witness.

Every produced witness is re-verified from scratch
(:func:`~repro.lowerbound.witnesses.verify_witness`).  If no witness is
found — e.g. because every extraction ran into the ``t/2``
receive-omission budget, which is exactly what ≥ ``t²/32``-message
algorithms buy themselves — the outcome reports the observed message
counts against the Lemma-1 floor.

**Execution reuse.**  The pipeline's cost is dominated by re-simulating
near-identical configurations: every ``E_b^{G(k)}`` shares its first
``k - 1`` rounds with the fault-free ``E_b``, and consecutive scan steps
``E_f^{B(k)}``, ``E_f^{B(k+1)}`` are *literally equal* whenever no
outside message targets ``B`` in round ``k`` (see
:meth:`~repro.sim.execution.Execution.quiescent_toward`).  The
:class:`ExecutionCache` exploits both: isolation runs fork off the
fault-free run at their isolation round, and quiescent scan spans
collapse onto one simulation.  Both reuses produce bit-identical runs —
machines are deterministic — so witnesses and verdicts are unchanged;
the engine counters in :class:`AttackOutcome` report the savings.

**The mask kernel.**  The driver's adversaries (no faults and the
Definition-1 isolations) are exactly the family the bitmask kernel
(:mod:`repro.sim.kernel`) compiles, so every simulation runs over
per-round integer bitmasks instead of message objects: the fault-free
run records a mask trace, the Lemma-4 scan fans candidates out of its
shared prefix via :class:`~repro.sim.kernel.PrefixForker` (one machine
deep-copy per divergence round), and §2 complexity is popcount
accumulation.  The per-message object engine is the reference: every
run the driver caches equals a fresh ``spec.run_uniform`` of its
configuration.

**Runs, not executions.**  The cache holds each configuration's
:class:`~repro.sim.kernel.KernelTrace`, which answers the driver's
questions — ``decision``, ``rounds``, ``correct``,
``message_complexity()`` and ``quiescent_toward`` — so most of the proof
only reads decisions and never builds fragments.  ``to_execution()``
is called at four boundaries only: the merge inputs, the Lemma-2 swap
source, a :class:`~repro.lowerbound.witnesses.ViolationWitness` and
certificate embedding.  Merge and swap results are
:class:`~repro.sim.execution.Execution` objects, on which
``to_execution()`` is the identity; :data:`Run` names either kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.certify.format import Certificate
    from repro.worldlog.store import WorldLog

from repro.errors import ModelViolation, ReproError
from repro.lowerbound.bound import BoundComparison, weak_consensus_floor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.lowerbound.partition import ABCPartition, canonical_partition
from repro.lowerbound.witnesses import (
    ViolationKind,
    ViolationWitness,
    verify_witness,
)
from repro.omission.isolation import isolate_group
from repro.omission.masks import compile_omissions
from repro.omission.merge import MergeSpec, merge
from repro.omission.swap import swap_omission_checked
from repro.protocols.base import ProtocolSpec
from repro.sim.execution import Execution, majority_decision
from repro.sim.kernel import (
    KernelTrace,
    PrefixForker,
    check_trace,
    fork_kernel,
    no_faults_compiled,
    run_kernel,
)
from repro.sim.simulator import SimulationConfig
from repro.types import Bit, Payload, ProcessId, Round

_SpecKey = tuple[str, int, int, int]

Run = Execution | KernelTrace
"""A run the pipeline handles: a cached mask trace, or the execution a
merge or swap derived."""


@dataclass
class _CacheEntry:
    """One cached simulation: the trace, its §2 message count, and
    whether it ran to the configured horizon (early-stopped runs are
    valid for decision queries but not as witnesses or merge inputs)."""

    run: KernelTrace
    messages: int
    complete: bool


@dataclass
class ExecutionCache:
    """Cache of simulated executions keyed by (protocol, bit, adversary).

    The key triple is ``(spec key, proposal bit, adversary signature)``
    where the spec key is ``(name, n, t, rounds)`` and the signature is
    ``None`` for fault-free runs or ``(group, from_round)`` for the
    isolation adversaries of Definition 1 — the only adversary family
    the pipeline simulates.  A cache may be shared across drivers (and
    thus across partitions) attacking the same protocol.

    Entries hold :class:`~repro.sim.kernel.KernelTrace` runs.

    Besides exact hits, the cache performs two *semantic* reuses, both
    returning runs bit-identical to a fresh simulation:

    * **quiescent aliasing** — ``E_b^{G(k)}`` equals a cached
      ``E_b^{G(k')}`` when no outside message targets ``G`` between the
      two isolation rounds
      (:meth:`~repro.sim.execution.Execution.quiescent_toward`);
    * **beyond-horizon identity** — for ``k`` past the horizon the
      isolation never acts, so the fault-free run is reused with the
      faulty set rewritten to ``G`` (a trace sharing the base trace's
      rows).

    ``hits`` counts exact key hits, ``alias_hits`` the semantic reuses,
    ``misses`` actual simulations.

    Process-boundary note: ``_entries`` hold full traces and
    ``_kernel_states`` hold live mask traces with their fork machinery
    (machine deep-copies) — neither is ever shipped across process
    boundaries.  A parallel sweep gives every worker its own cache and
    sends back *counters only* (see
    :class:`repro.parallel.jobs.CacheStats`), which the scheduler sums
    into one aggregate.
    """

    hits: int = 0
    alias_hits: int = 0
    misses: int = 0
    _entries: dict = field(default_factory=dict, repr=False)
    _kernel_states: dict = field(default_factory=dict, repr=False)

    def lookup(self, key: tuple) -> _CacheEntry | None:
        """The entry stored under the exact ``key``, if any."""
        return self._entries.get(key)

    def store(self, key: tuple, entry: _CacheEntry) -> None:
        """Insert or replace the entry for ``key``."""
        self._entries[key] = entry

    def isolation_family(
        self,
        spec_key: _SpecKey,
        bit: Bit,
        group: frozenset[ProcessId],
    ) -> list[tuple[Round, _CacheEntry]]:
        """All cached ``(from_round, entry)`` isolations of ``group``."""
        family = []
        for (skey, kbit, sig), entry in self._entries.items():
            if (
                skey == spec_key
                and kbit == bit
                and sig is not None
                and sig[0] == group
            ):
                family.append((sig[1], entry))
        return family

    def kernel_state(
        self, spec_key: _SpecKey, bit: Bit
    ) -> "tuple[KernelTrace, PrefixForker] | None":
        """The fault-free kernel trace and its forker, if recorded."""
        return self._kernel_states.get((spec_key, bit))

    def store_kernel_state(
        self,
        spec_key: _SpecKey,
        bit: Bit,
        state: "tuple[KernelTrace, PrefixForker]",
    ) -> None:
        """Record the fault-free trace (the shared prefix) plus the
        :class:`~repro.sim.kernel.PrefixForker` the Lemma-4 scan fans
        out of."""
        self._kernel_states[(spec_key, bit)] = state


@dataclass(frozen=True)
class AttackOutcome:
    """The result of running the lower-bound pipeline on one candidate.

    Attributes:
        protocol: the candidate's name.
        n, t: system parameters.
        partition: the (A, B, C) partition used.
        witness: a verified violation witness, or ``None``.
        bound: observed worst message count vs the ``t²/32`` floor.
        default_bit: the Lemma-3 common decision ``d`` (if reached).
        critical_round: the Lemma-4 round ``R`` (if reached).
        log: the pipeline's step-by-step narrative (including the engine
            round counters).
        rounds_simulated: rounds the engine actually simulated.
        rounds_baseline: rounds a reuse-free pipeline (one full-horizon
            simulation per distinct configuration) would have simulated.
        certificate: the portable v2 artifact packaging this outcome's
            claim (when certification was requested).  Excluded from
            equality: the certificate is derived evidence, and
            reuse-enabled and reuse-free runs of one attack may embed
            differently-labeled (yet equally valid) execution sets.
    """

    protocol: str
    n: int
    t: int
    partition: ABCPartition
    witness: ViolationWitness | None
    bound: BoundComparison
    default_bit: Payload | None = None
    critical_round: Round | None = None
    log: tuple[str, ...] = ()
    rounds_simulated: int = 0
    rounds_baseline: int = 0
    certificate: "Certificate | None" = field(default=None, compare=False)

    @property
    def found_violation(self) -> bool:
        """Whether the candidate was broken."""
        return self.witness is not None

    def render(self) -> str:
        """A short report block."""
        lines = [
            f"attack on {self.protocol} (n={self.n}, t={self.t}; "
            f"{self.partition.describe()})",
            f"  {self.bound.render()}",
        ]
        if self.default_bit is not None:
            lines.append(f"  default bit d = {self.default_bit!r}")
        if self.critical_round is not None:
            lines.append(f"  critical round R = {self.critical_round}")
        if self.rounds_baseline:
            lines.append(
                f"  simulated {self.rounds_simulated} rounds "
                f"(baseline {self.rounds_baseline})"
            )
        if self.witness is not None:
            lines.append(f"  VIOLATION: {self.witness.summary()}")
        else:
            lines.append("  no violation found (bound respected)")
        if self.certificate is not None:
            lines.append(
                f"  certificate: schema v{self.certificate.schema}, "
                f"{len(self.certificate.execution_labels)} execution(s) "
                "embedded"
            )
        return "\n".join(lines)


class _Found(Exception):
    """Internal: unwinds the pipeline when a witness is in hand, with
    the run its execution was materialized from (for certification)."""

    def __init__(self, witness: ViolationWitness, run: Run) -> None:
        super().__init__(witness.summary())
        self.witness = witness
        self.run = run


@dataclass
class LowerBoundDriver:
    """Runs the Lemma 2–5 pipeline against one candidate algorithm.

    Attributes:
        spec: the candidate weak consensus algorithm.
        partition: the (A, B, C) split; defaults to
            :func:`~repro.lowerbound.partition.canonical_partition`.
        verify: re-verify any produced witness from scratch.
        check: validate every simulated trace against the model
            conditions (disable for speed once a protocol is trusted).
        early_stop: halt decision-only simulations once *every* process
            has decided.  Witnesses, merge inputs and the observed bound
            always come from full-horizon runs (re-simulated on demand),
            so outcomes are unchanged.
        reuse: enable the execution cache's prefix-fork and
            quiescent-aliasing reuses.  Disabling both ``early_stop``
            and ``reuse`` replicates the simulate-everything pipeline.
        cache: a shared :class:`ExecutionCache`; by default each driver
            builds its own.
        tracer: the structured-telemetry sink and the driver's one
            timing instrument (default: the shared zero-overhead
            :data:`~repro.obs.tracer.NULL_TRACER`).  A live
            :class:`~repro.obs.tracer.LedgerTracer` receives every
            pipeline phase as a span, every simulated round as an
            ``engine.round`` event with message-count and wall-time
            attributes, and the final cache/bound counters — the
            run-ledger view of the attack.  Telemetry never affects
            outcomes.
        certify: package the outcome as a portable v2 attack
            certificate (``AttackOutcome.certificate``): the pipeline
            records which configuration produced each trace and which
            merge/swap produced the witness, and the final artifact
            embeds the evidence chain for
            :func:`repro.certify.verifier.verify_certificate`.
        worldlog: an open :class:`~repro.worldlog.store.WorldLog` to
            record in-band milestones into (default ``None``: no
            records).  When ``certify`` is on, the driver appends a
            ``cert.artifact`` record carrying the assembled
            certificate's exact canonical text, so the certificate view
            derived from the log is byte-identical to the file the CLI
            writes.  Recording never affects outcomes.

    Every simulation runs on the bitmask kernel (:mod:`repro.sim.kernel`);
    see the module docstring.
    """

    spec: ProtocolSpec
    partition: ABCPartition | None = None
    verify: bool = True
    check: bool = True
    early_stop: bool = True
    reuse: bool = True
    cache: ExecutionCache | None = None
    certify: bool = False
    tracer: Tracer = NULL_TRACER
    worldlog: "WorldLog | None" = None
    _trace_observers: tuple = field(default=(), repr=False)
    _log: list[str] = field(default_factory=list, repr=False)
    _max_messages: int = field(default=0, repr=False)
    _requested: set = field(default_factory=set, repr=False)
    _rounds_simulated: int = field(default=0, repr=False)
    _rounds_baseline: int = field(default=0, repr=False)
    _prefix_rounds_skipped: int = field(default=0, repr=False)
    _early_stops: int = field(default=0, repr=False)
    _popcounts: int = field(default=0, repr=False)
    _machine_snapshots: int = field(default=0, repr=False)
    # certification trail: which (bit, group, from_round) produced each
    # run, plus the merge/swap contexts the witness (if any) fell out
    # of.  Keyed by the identity of the run the cache returned — never
    # of an execution materialized from it — and each value pins its
    # run, so no key can be reused while the trail holds it.
    _cert_origin: dict = field(default_factory=dict, repr=False)
    _cert_merge_ctx: dict | None = field(default=None, repr=False)
    _cert_swap_ctx: dict | None = field(default=None, repr=False)
    _cert_max_run: Run | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.partition is None:
            self.partition = canonical_partition(self.spec.n, self.spec.t)
        if (self.partition.n, self.partition.t) != (
            self.spec.n,
            self.spec.t,
        ):
            raise ValueError("partition does not match the spec's (n, t)")
        if self.cache is None:
            self.cache = ExecutionCache()
        if self.tracer.enabled:
            self._trace_observers = self.tracer.round_observers(
                floor=weak_consensus_floor(self.spec.t)
            )
        self._spec_key: _SpecKey = (
            self.spec.name,
            self.spec.n,
            self.spec.t,
            self.spec.rounds,
        )

    def attack(self) -> AttackOutcome:
        """Run the full pipeline; always returns (never raises _Found)."""
        with self.tracer.span(
            "attack",
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
        ):
            return self._attack()

    def _attack(self) -> AttackOutcome:
        witness: ViolationWitness | None = None
        witness_run: Run | None = None
        default_bit: Payload | None = None
        critical_round: Round | None = None
        try:
            with self.tracer.span("fault-free"):
                self._fault_free_checks()
            with self.tracer.span("isolation-scan"):
                decisions = self._round_one_isolations()
            default_bit = self._lemma3_consistency(decisions)
            if default_bit is not None:
                with self.tracer.span("isolation-scan"):
                    critical_round = self._critical_round_scan(
                        default_bit
                    )
                if critical_round is not None:
                    self._final_merge(default_bit, critical_round)
            self._note("pipeline exhausted without a violation")
        except _Found as found:
            witness = found.witness
            witness_run = found.run
            if self.verify:
                with self.tracer.span("witness-verify"):
                    verify_witness(witness, self.spec.factory)
                self._note("witness re-verified from scratch")
        assert self.partition is not None
        assert self.cache is not None
        self._note(
            f"engine: simulated {self._rounds_simulated} rounds vs "
            f"{self._rounds_baseline} baseline "
            f"({self.cache.hits} cache hits, "
            f"{self.cache.alias_hits} reuse hits, "
            f"{self._prefix_rounds_skipped} prefix rounds skipped, "
            f"{self._early_stops} early stops)"
        )
        certificate: "Certificate | None" = None
        if self.certify:
            with self.tracer.span("certify"):
                certificate = self._build_certificate(
                    witness, witness_run, default_bit, critical_round
                )
            self._note(
                "certificate assembled: "
                f"{len(certificate.execution_labels)} execution(s) "
                "embedded"
            )
            if self.worldlog is not None:
                label = f"{self.spec.name}-n{self.spec.n}-t{self.spec.t}"
                self.worldlog.append(
                    "cert.artifact",
                    {"label": label, "text": certificate.dumps()},
                    cell_id=label,
                )
        self._flush_metrics(witness)
        return AttackOutcome(
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
            partition=self.partition,
            witness=witness,
            bound=BoundComparison(
                t=self.spec.t, observed=self._max_messages
            ),
            default_bit=default_bit,
            critical_round=critical_round,
            log=tuple(self._log),
            rounds_simulated=self._rounds_simulated,
            rounds_baseline=self._rounds_baseline,
            certificate=certificate,
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def _fault_free_checks(self) -> None:
        """Stage 1: Weak Validity and Termination in E_0 and E_1."""
        for bit in (0, 1):
            run = self._run(bit, group=None, from_round=None)
            self._require_unanimous(run, context=f"fault-free all-{bit}")
            for pid in range(self.spec.n):
                decision = run.decision(pid)
                if decision != bit:
                    self._found(
                        ViolationWitness(
                            kind=ViolationKind.WEAK_VALIDITY,
                            execution=run.to_execution(),
                            culprit=pid,
                            note=(
                                f"all processes correct and propose {bit} "
                                f"but p{pid} decided {decision!r}"
                            ),
                        ),
                        run,
                    )

    def _round_one_isolations(self) -> dict[tuple[Bit, str], Payload]:
        """Stage 2: the four ``E_b^{G(1)}`` executions plus Lemma-2 checks."""
        decisions: dict[tuple[Bit, str], Payload] = {}
        for bit in (0, 1):
            for label in ("B", "C"):
                run = self._run(bit, group=label, from_round=1)
                refetch = self._refetcher(bit, label, 1)
                decided = self._require_unanimous(
                    run,
                    context=f"E_{bit}^{{{label}(1)}}",
                    refetch=refetch,
                )
                decisions[(bit, label)] = decided
                self._lemma2_check(run, label, 1, decided, refetch=refetch)
        return decisions

    def _lemma3_consistency(
        self, decisions: dict[tuple[Bit, str], Payload]
    ) -> Payload | None:
        """Stage 3: the four round-1 decisions must coincide (Lemma 3).

        Returns the common bit ``d`` when consistent; on a mismatch merges
        the offending mergeable pair and attempts extraction inside it,
        returning ``None`` if nothing could be extracted (pipeline over).
        """
        values = set(decisions.values())
        if len(values) == 1:
            d = values.pop()
            self._note(f"Lemma 3 consistent: default bit d = {d!r}")
            return d
        self._note(
            f"Lemma 3 violated across round-1 isolations: {decisions}"
        )
        for bit_b in (0, 1):
            for bit_c in (0, 1):
                d_b = decisions[(bit_b, "B")]
                d_c = decisions[(bit_c, "C")]
                if d_b == d_c:
                    continue
                self._merge_and_extract(
                    run_b=self._run(bit_b, "B", 1, full=True),
                    run_c=self._run(bit_c, "C", 1, full=True),
                    round_b=1,
                    round_c=1,
                    expect_b=d_b,
                    expect_c=d_c,
                )
        self._note("merge extraction inconclusive at round-1 stage")
        return None

    def _critical_round_scan(self, default_bit: Payload) -> Round | None:
        """Stage 4 (Lemma 4): find R with decisions d at B(R), f at B(R+1)."""
        family_bit = 1 - int(default_bit)  # binary weak consensus
        previous = default_bit
        for k in range(2, self.spec.rounds + 3):
            run = self._run(family_bit, "B", k)
            refetch = self._refetcher(family_bit, "B", k)
            decided = self._require_unanimous(
                run,
                context=f"E_{family_bit}^{{B({k})}}",
                refetch=refetch,
            )
            self._lemma2_check(run, "B", k, decided, refetch=refetch)
            if decided != previous:
                critical = k - 1
                self._note(
                    f"critical round R = {critical}: decisions "
                    f"{previous!r} at B({critical}) vs {decided!r} at "
                    f"B({critical + 1})"
                )
                return critical
        self._note(
            "no critical round found within the horizon — the decision "
            "never flipped, contradicting Weak Validity bookkeeping"
        )
        return None

    def _final_merge(
        self, default_bit: Payload, critical_round: Round
    ) -> None:
        """Stage 5 (Lemma 5 / Figure 2): merge B(R+1) with C(R)."""
        family_bit = 1 - int(default_bit)
        run_c = self._run(family_bit, "C", critical_round, full=True)
        decided_c = self._require_unanimous(
            run_c,
            context=f"E_{family_bit}^{{C({critical_round})}}",
        )
        self._lemma2_check(run_c, "C", critical_round, decided_c)
        if decided_c == default_bit:
            # The paper's main line: B at R+1 decides f, C at R decides d.
            self._merge_and_extract(
                run_b=self._run(
                    family_bit, "B", critical_round + 1, full=True
                ),
                run_c=run_c,
                round_b=critical_round + 1,
                round_c=critical_round,
                expect_b=family_bit,
                expect_c=default_bit,
            )
        else:
            # Lemma 3 already fails for the same-round pair (B(R), C(R)).
            self._merge_and_extract(
                run_b=self._run(
                    family_bit, "B", critical_round, full=True
                ),
                run_c=run_c,
                round_b=critical_round,
                round_c=critical_round,
                expect_b=default_bit,
                expect_c=decided_c,
            )
        self._note("final merge extraction inconclusive")

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------

    def _merge_and_extract(
        self,
        run_b: Run,
        run_c: Run,
        round_b: Round,
        round_c: Round,
        expect_b: Payload,
        expect_c: Payload,
    ) -> None:
        """Merge two isolated runs and try both extractions.

        ``expect_b``/``expect_c`` are the decisions the replayed groups
        carry over by indistinguishability; group A must disagree with at
        least one of them when the expectations differ.  The merge needs
        fragments, so both inputs are materialized here.
        """
        assert self.partition is not None
        spec = MergeSpec(
            group_b=self.partition.group_b,
            group_c=self.partition.group_c,
            round_b=round_b,
            round_c=round_c,
        )
        with self.tracer.span("merge"):
            merged = merge(
                spec,
                run_b.to_execution(),
                run_c.to_execution(),
                self.spec.factory,
            )
        if self.certify:
            self._cert_merge_ctx = {
                "run_b": run_b,
                "run_c": run_c,
                "round_b": round_b,
                "round_c": round_c,
                "merged": merged,
            }
        self._observe(merged)
        self._note(
            f"merged B({round_b}) with C({round_c}); expecting B->"
            f"{expect_b!r}, C->{expect_c!r}"
        )
        decided = self._require_unanimous(
            merged, context=f"merge(B({round_b}), C({round_c}))"
        )
        if decided != expect_b:
            self._lemma2_extract(merged, "B", round_b, decided)
        if decided != expect_c:
            self._lemma2_extract(merged, "C", round_c, decided)

    def _lemma2_check(
        self,
        run: Run,
        group_label: str,
        from_round: Round,
        correct_decision: Payload,
        refetch: "Callable[[], Run] | None" = None,
    ) -> None:
        """If the isolated group's majority strays, try the extraction."""
        group = self._group(group_label)
        majority = majority_decision(run, sorted(group))
        if majority != correct_decision:
            self._note(
                f"Lemma 2 premise violated: majority of {group_label} "
                f"decided {majority!r} vs correct {correct_decision!r}"
            )
            if refetch is not None and self._truncated(run):
                run = refetch()
            self._lemma2_extract(
                run, group_label, from_round, correct_decision
            )

    def _lemma2_extract(
        self,
        run: Run,
        group_label: str,
        from_round: Round,
        correct_decision: Payload,
    ) -> None:
        """Lemma 2's constructive step: swap omissions to free a deviant.

        Scans the isolated group's members in order of how few messages
        from correct processes they receive-omitted (the paper's
        ``|M_{X→p}| < t/2`` counting argument picks exactly these), and
        for each deviant attempts ``swap_omission``; a successful swap
        yields a valid execution in which the deviant is *correct* yet
        disagrees with (or never decides unlike) a correct witness.  The
        swap rewrites fragments, so its source is materialized here.
        """
        group = self._group(group_label)
        execution = run.to_execution()
        correct = execution.correct

        def omitted_from_correct(pid: ProcessId) -> int:
            behavior = execution.behavior(pid)
            return sum(
                1
                for message in behavior.all_receive_omitted()
                if message.sender in correct
            )

        candidates = sorted(
            (pid for pid in group
             if execution.decision(pid) != correct_decision),
            key=lambda pid: (omitted_from_correct(pid), pid),
        )
        for pid in candidates:
            try:
                with self.tracer.span("swap"):
                    swapped = swap_omission_checked(execution, pid)
            except ModelViolation as error:
                self._note(
                    f"extraction via p{pid} failed: {error} "
                    "(the message-count premise protects the algorithm "
                    "here)"
                )
                continue
            remaining_correct = sorted(
                correct - swapped.execution.faulty
            )
            witnesses = [
                q
                for q in remaining_correct
                if swapped.execution.decision(q) == correct_decision
            ]
            if not witnesses:
                self._note(
                    f"extraction via p{pid}: no correct witness survived "
                    "the swap"
                )
                continue
            counterpart = witnesses[0]
            if self.certify:
                self._cert_swap_ctx = {
                    "source": run,
                    "result": swapped.execution,
                    "process": pid,
                }
            if swapped.execution.decision(pid) is None:
                self._found(
                    ViolationWitness(
                        kind=ViolationKind.TERMINATION,
                        execution=swapped.execution,
                        culprit=pid,
                        note=(
                            f"swap freed p{pid} (isolated in {group_label} "
                            f"from round {from_round}) which never decides"
                        ),
                    ),
                    swapped.execution,
                )
            self._found(
                ViolationWitness(
                    kind=ViolationKind.AGREEMENT,
                    execution=swapped.execution,
                    culprit=pid,
                    counterpart=counterpart,
                    note=(
                        f"swap freed p{pid} (isolated in {group_label} "
                        f"from round {from_round}); decides "
                        f"{swapped.execution.decision(pid)!r} vs "
                        f"p{counterpart}'s {correct_decision!r}"
                    ),
                ),
                swapped.execution,
            )

    def _require_unanimous(
        self,
        run: Run,
        context: str,
        refetch: "Callable[[], Run] | None" = None,
    ) -> Payload:
        """All correct processes decided one value — or a direct witness.

        ``refetch`` re-runs the configuration at full horizon when the
        checked run was early-stopped and a witness must embed it
        (decisions are write-once, so the decision data is unaffected).
        """
        correct = sorted(run.correct)
        undecided = [pid for pid in correct if run.decision(pid) is None]
        if undecided:
            if refetch is not None and self._truncated(run):
                run = refetch()
            self._found(
                ViolationWitness(
                    kind=ViolationKind.TERMINATION,
                    execution=run.to_execution(),
                    culprit=undecided[0],
                    note=f"correct p{undecided[0]} undecided in {context}",
                ),
                run,
            )
        by_value: dict[Payload, ProcessId] = {}
        for pid in correct:
            by_value.setdefault(run.decision(pid), pid)
        if len(by_value) > 1:
            if refetch is not None and self._truncated(run):
                run = refetch()
            values = sorted(by_value, key=repr)
            self._found(
                ViolationWitness(
                    kind=ViolationKind.AGREEMENT,
                    execution=run.to_execution(),
                    culprit=by_value[values[0]],
                    counterpart=by_value[values[1]],
                    note=f"correct processes split in {context}",
                ),
                run,
            )
        return next(iter(by_value))

    def _truncated(self, run: Run) -> bool:
        return run.rounds < self.spec.rounds

    def _refetcher(
        self, bit: Bit, group: str, from_round: Round
    ) -> "Callable[[], Run]":
        """A thunk re-running the configuration at full horizon."""
        return lambda: self._run(bit, group, from_round, full=True)

    def _run(
        self,
        bit: Bit,
        group: str | None,
        from_round: Round | None,
        *,
        full: bool = False,
    ) -> Run:
        """Run (and cache) ``E_bit`` or ``E_bit^{G(k)}``.

        ``full`` demands a full-horizon run (witness embedding, merge
        input); otherwise a cached early-stopped run is acceptable for
        decision queries.  Both the quiescent-alias and prefix-fork
        paths return runs bit-identical to a fresh simulation, so
        callers never observe the difference.
        """
        run = self._run_config(bit, group, from_round, full=full)
        if self.certify:
            # Remember which configuration produced the run; with
            # quiescent aliasing one run may serve several requested
            # rounds, and the *first* (actually simulated) origin is the
            # one whose isolation claim certainly holds.
            self._cert_origin.setdefault(
                id(run), (run, (bit, group, from_round))
            )
        return run

    def _run_config(
        self,
        bit: Bit,
        group: str | None,
        from_round: Round | None,
        *,
        full: bool = False,
    ) -> Run:
        assert self.cache is not None
        horizon = self.spec.rounds
        sig = (
            None
            if group is None
            else (self._group(group), from_round)
        )
        # Baseline accounting: the reuse-free pipeline simulates each
        # distinct configuration once, at full horizon.
        if (bit, sig) not in self._requested:
            self._requested.add((bit, sig))
            self._rounds_baseline += horizon
        key = (self._spec_key, bit, sig)
        entry = self.cache.lookup(key)
        if entry is not None and (entry.complete or not full):
            self.cache.hits += 1
            return entry.run
        if group is None:
            return self._run_fault_free(bit, key)
        assert from_round is not None
        members = self._group(group)
        if self.reuse:
            reused = self._try_reuse(
                key, bit, members, from_round, horizon
            )
            if reused is not None:
                return reused
        return self._simulate_isolation(
            key, bit, members, from_round, horizon, full
        )

    def _run_fault_free(self, bit: Bit, key: tuple) -> KernelTrace:
        """Simulate a fault-free run, recording it for later forks.

        Always full-horizon: fault-free traces anchor the observed bound
        and the Weak Validity witnesses, and their prefixes seed every
        fork.  With ``reuse`` the cache records the trace plus a
        :class:`~repro.sim.kernel.PrefixForker`; scan candidates
        deep-copy once at their divergence round.  When checking is on,
        the trace additionally goes through
        :func:`~repro.sim.kernel.check_trace` — fault-free runs anchor
        witnesses and the observed bound, so they get the full
        Appendix-A check, read off the masks.  The trace is not
        materialized: it is cached as the run, and becomes an
        :class:`Execution` only if it turns into a witness or is
        embedded in a certificate (an execution built from a checked
        trace needs no second check).
        """
        assert self.cache is not None
        proposals = [bit] * self.spec.n
        trace = run_kernel(
            self._sim_config(),
            proposals,
            self.spec.factory,
            no_faults_compiled(self.spec.n),
            observers=self._trace_observers,
        )
        if self.check:
            check_trace(trace)
        self._rounds_simulated += trace.rounds
        messages = self._message_complexity(trace)
        self._observe_messages(messages, trace)
        self.cache.store(key, _CacheEntry(trace, messages, True))
        self.cache.misses += 1
        if self.reuse:
            forker = PrefixForker(
                self._sim_config(), proposals, self.spec.factory, trace
            )
            self.cache.store_kernel_state(
                self._spec_key, bit, (trace, forker)
            )
        return trace

    def _try_reuse(
        self,
        key: tuple,
        bit: Bit,
        members: frozenset[ProcessId],
        from_round: Round,
        horizon: int,
    ) -> KernelTrace | None:
        """The semantic reuses: beyond-horizon identity and aliasing."""
        assert self.cache is not None
        if from_round > horizon:
            # The isolation never acts within the horizon: the run is
            # the fault-free one with the faulty set rewritten to the
            # (fault-committing-nothing) isolated group.
            base = self._run(bit, None, None)
            run = KernelTrace(
                n=self.spec.n,
                t=self.spec.t,
                proposals=base.proposals,
                corrupted=members,
                rows=base.rows,
            )
            entry = _CacheEntry(run, self._message_complexity(run), True)
            self.cache.store(key, entry)
            self.cache.alias_hits += 1
            self._observe_messages(entry.messages, run)
            return run
        family = self.cache.isolation_family(self._spec_key, bit, members)
        for k_prime, sibling in sorted(family, reverse=True):
            if k_prime == from_round or not sibling.complete:
                continue
            lo, hi = sorted((k_prime, from_round))
            if sibling.run.quiescent_toward(members, lo, hi):
                self.cache.store(key, sibling)
                self.cache.alias_hits += 1
                self._observe_messages(sibling.messages, sibling.run)
                return sibling.run
        return None

    def _simulate_isolation(
        self,
        key: tuple,
        bit: Bit,
        members: frozenset[ProcessId],
        from_round: Round,
        horizon: int,
        full: bool,
    ) -> KernelTrace:
        """Actually simulate ``E_bit^{G(from_round)}``.

        Candidates with ``from_round >= 2`` fan out of the fault-free
        prefix via the recorded :class:`~repro.sim.kernel.PrefixForker`
        (one deep-copy at the divergence round, memoized across
        candidates and bits of the scan) and simulate only their tail as
        a mask delta — the isolated run is identical to the fault-free
        one before its isolation round.  The forker's prefix replays are
        checkpoint *provisioning*, not simulation, so they are excluded
        from the ``rounds_simulated`` counter.  Otherwise the run starts
        from scratch, early-stopped when only decisions are needed.
        """
        assert self.cache is not None
        compiled = compile_omissions(
            isolate_group(members, from_round), self.spec.n
        )
        assert compiled is not None  # isolations always compile
        state = (
            self.cache.kernel_state(self._spec_key, bit)
            if self.reuse
            else None
        )
        if state is not None and 2 <= from_round <= horizon:
            base_trace, forker = state
            copied = forker.machines_copied
            machines, _advanced = forker.machines_at(from_round)
            self._machine_snapshots += forker.machines_copied - copied
            if machines is not None:
                # Touch the fault-free base through the cache: the hit
                # it counts is part of the reuse counters that
                # ``AttackOutcome.log``, ``repro attack --log`` and the
                # certificate goldens record.
                self._run(bit, None, None)
                trace = fork_kernel(
                    self._sim_config(),
                    machines,
                    compiled,
                    base_trace,
                    from_round,
                    observers=self._trace_observers,
                )
                self._rounds_simulated += horizon - from_round + 1
                self._prefix_rounds_skipped += from_round - 1
                messages = self._message_complexity(trace)
                self._observe_messages(messages, trace)
                self.cache.store(key, _CacheEntry(trace, messages, True))
                self.cache.misses += 1
                return trace
        early = "all" if self.early_stop and not full else None
        trace = run_kernel(
            self._sim_config(),
            [bit] * self.spec.n,
            self.spec.factory,
            compiled,
            early_stop=early,
            observers=self._trace_observers,
        )
        self._rounds_simulated += trace.rounds
        complete = trace.rounds == horizon
        if not complete:
            self._early_stops += 1
        messages = self._message_complexity(trace)
        if complete:
            self._observe_messages(messages, trace)
        self.cache.store(key, _CacheEntry(trace, messages, complete))
        self.cache.misses += 1
        return trace

    def _sim_config(self) -> SimulationConfig:
        """The kernel-run configuration mirroring ``spec.run_uniform``."""
        return SimulationConfig(
            n=self.spec.n,
            t=self.spec.t,
            rounds=self.spec.rounds,
            check=self.check,
        )

    def _flush_metrics(self, witness: ViolationWitness | None) -> None:
        """Emit the pipeline's final totals as ledger events."""
        if not self.tracer.enabled:
            return
        assert self.cache is not None
        counters = {
            "cache.hits": self.cache.hits,
            "cache.alias_hits": self.cache.alias_hits,
            "cache.misses": self.cache.misses,
            "engine.rounds_simulated": self._rounds_simulated,
            "engine.rounds_baseline": self._rounds_baseline,
            "engine.prefix_rounds_skipped": self._prefix_rounds_skipped,
            "engine.early_stops": self._early_stops,
            "engine.machine_snapshots": self._machine_snapshots,
            # The kernel builds four masks per process per round.
            "engine.masks_built": 4 * self.spec.n * self._rounds_simulated,
            "engine.popcounts": self._popcounts,
            "witness.found": 1 if witness else 0,
        }
        for name, value in counters.items():
            self.tracer.counter(name, value=value)
        floor = weak_consensus_floor(self.spec.t)
        if floor:
            self.tracer.gauge(
                "bound.vs_floor", value=self._max_messages / floor
            )
        self.tracer.gauge("bound.observed", value=self._max_messages)
        self.tracer.gauge("bound.floor", value=floor)

    def _group(self, label: str) -> frozenset[ProcessId]:
        assert self.partition is not None
        if label == "B":
            return self.partition.group_b
        if label == "C":
            return self.partition.group_c
        raise ReproError(f"unknown group label {label!r}")

    def _message_complexity(self, trace: KernelTrace) -> int:
        """``trace``'s §2 message count, tallying its popcounts (one
        per correct sender per round) for ``engine.popcounts``."""
        self._popcounts += len(trace.correct) * trace.rounds
        return trace.message_complexity()

    def _observe(self, execution: Execution) -> None:
        self._observe_messages(execution.message_complexity(), execution)

    def _observe_messages(self, messages: int, run: Run) -> None:
        if self.certify and (
            messages > self._max_messages or self._cert_max_run is None
        ):
            self._cert_max_run = run
        self._max_messages = max(self._max_messages, messages)

    def _note(self, message: str) -> None:
        self._log.append(message)

    def _found(self, witness: ViolationWitness, run: Run) -> None:
        """Unwind with ``witness``, whose execution ``run`` materialized."""
        self._note(f"violation: {witness.summary()}")
        raise _Found(witness, run)

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------

    def _build_certificate(
        self,
        witness: ViolationWitness | None,
        witness_run: Run | None,
        default_bit: Payload | None,
        critical_round: Round | None,
    ) -> "Certificate":
        """Package the attack's evidence chain as a v2 certificate.

        Embeds only the critical-path runs, materialized here: the
        witness execution, the pre-swap source, the merge inputs (when
        the source is a merge result) — or, for a respected bound, the
        run attaining the observed maximum.  Each embedded execution
        carries its provenance (which configuration simulated it, which
        construction derived it), the Definition-1 isolation claims its
        origin guarantees, and the Lemma-15/16 indistinguishability
        conclusions.
        """
        from repro.certify.format import build_certificate

        assert self.partition is not None
        executions: dict[str, Execution] = {}
        provenance: list[dict] = []
        indistinguishability: list[dict] = []
        isolations: list[dict] = []

        def embed(run: Run, label: str) -> str:
            executions[label] = run.to_execution()
            pinned = self._cert_origin.get(id(run))
            if pinned is not None:
                bit, group, from_round = pinned[1]
                step: dict = {"op": "simulate", "result": label,
                              "proposal_bit": bit}
                if group is not None:
                    step["op"] = "isolate"
                    step["isolated_group"] = group
                    step["from_round"] = from_round
                    isolations.append(
                        {
                            "execution": label,
                            "group": sorted(self._group(group)),
                            "from_round": from_round,
                        }
                    )
                provenance.append(step)
            return label

        def embed_with_history(run: Run, label: str) -> str:
            ctx = self._cert_merge_ctx
            if ctx is not None and ctx["merged"] is run:
                embed(ctx["run_b"], "merge-input-b")
                embed(ctx["run_c"], "merge-input-c")
                executions[label] = ctx["merged"]
                provenance.append(
                    {
                        "op": "merge",
                        "inputs": ["merge-input-b", "merge-input-c"],
                        "result": label,
                        "round_b": ctx["round_b"],
                        "round_c": ctx["round_c"],
                    }
                )
                # Lemma 16: the merge replays B's and C's behaviors
                # verbatim, so each group cannot tell the merged
                # execution from its own input.
                indistinguishability.append(
                    {
                        "left": "merge-input-b",
                        "right": label,
                        "processes": sorted(self.partition.group_b),
                    }
                )
                indistinguishability.append(
                    {
                        "left": "merge-input-c",
                        "right": label,
                        "processes": sorted(self.partition.group_c),
                    }
                )
            else:
                embed(run, label)
            return label

        witness_label: str | None = None
        max_label: str | None = None
        if witness is not None:
            assert witness_run is not None
            witness_label = "witness"
            swap_ctx = self._cert_swap_ctx
            if (
                swap_ctx is not None
                and swap_ctx["result"] is witness.execution
            ):
                embed_with_history(swap_ctx["source"], "pre-swap")
                executions[witness_label] = witness.execution
                provenance.append(
                    {
                        "op": "swap",
                        "source": "pre-swap",
                        "result": witness_label,
                        "process": swap_ctx["process"],
                    }
                )
                # Lemma 15: swap_omission only re-attributes blame;
                # nobody's observations change.
                indistinguishability.append(
                    {
                        "left": "pre-swap",
                        "right": witness_label,
                        "processes": list(range(self.spec.n)),
                    }
                )
            else:
                embed_with_history(witness_run, witness_label)
        elif self._cert_max_run is not None:
            max_label = embed_with_history(
                self._cert_max_run, "max-messages"
            )
        return build_certificate(
            protocol=self.spec.name,
            n=self.spec.n,
            t=self.spec.t,
            rounds=self.spec.rounds,
            partition=self.partition,
            executions=executions,
            witness=witness,
            witness_label=witness_label,
            provenance=provenance,
            indistinguishability=indistinguishability,
            isolations=isolations,
            observed=self._max_messages,
            max_label=max_label,
            default_bit=default_bit,
            critical_round=critical_round,
        )


def attack_weak_consensus(
    spec: ProtocolSpec,
    partition: ABCPartition | None = None,
    *,
    verify: bool = True,
    check: bool = True,
    early_stop: bool = True,
    reuse: bool = True,
    cache: ExecutionCache | None = None,
    certify: bool = False,
    tracer: Tracer = NULL_TRACER,
    worldlog: "WorldLog | None" = None,
) -> AttackOutcome:
    """Run the full lower-bound pipeline against ``spec``.

    Args:
        partition: the (A, B, C) split (default: canonical sizing).
        verify: re-verify any witness from scratch before returning.
        check: validate simulated traces against the model conditions.
        early_stop: halt decision-only simulations at the decision round.
        reuse: enable prefix-fork and quiescent-alias execution
            reuse (``early_stop=False, reuse=False`` reproduces the
            simulate-everything pipeline round for round).
        cache: a shared :class:`ExecutionCache` for attacking the same
            protocol repeatedly (e.g. across partitions).
        certify: attach a portable v2 attack certificate
            (``AttackOutcome.certificate``) packaging the witness, its
            merge/swap provenance, the isolation and
            indistinguishability claims, and the ``t²/32`` accounting
            for :func:`repro.certify.verifier.verify_certificate`.
        tracer: the structured-telemetry and timing sink (a
            :class:`~repro.obs.tracer.LedgerTracer` to record the run
            ledger with phase spans and per-round wall times; the
            zero-overhead no-op by default).
        worldlog: an open :class:`~repro.worldlog.store.WorldLog` for
            the in-band ``cert.artifact`` record (written only when
            ``certify`` is on).
    """
    driver = LowerBoundDriver(
        spec=spec,
        partition=partition,
        verify=verify,
        check=check,
        early_stop=early_stop,
        reuse=reuse,
        cache=cache,
        certify=certify,
        tracer=tracer,
        worldlog=worldlog,
    )
    return driver.attack()
