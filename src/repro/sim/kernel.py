"""The bitmask round kernel: a compiled-by-representation fast path.

The object engine (:mod:`repro.sim.engine`) executes the synchronous
round loop of §2/A.1 as per-``(sender, receiver)``
:class:`~repro.sim.message.Message` objects wrapped in per-process
:class:`~repro.sim.state.Fragment` records — the right representation
for the proof constructions, and a wasteful one for the thousands of
near-identical simulations the Lemma-4 isolation scan performs.  This
module executes the *same* semantics over integer bitmasks:

* each round's message pattern is one integer per sender whose bit ``r``
  says "a message travels to ``r`` this round" (``n <= 64`` fits one
  machine word; Python's arbitrary-precision integers *are* the limb
  array beyond, so nothing changes for larger systems);
* the omission adversaries the lower bound needs (``isolate_group``,
  the no-fault adversary) compile to per-receiver
  ``(threshold round, allowed-sender mask)`` pairs
  (:class:`CompiledOmissions`, built by
  :func:`repro.omission.masks.compile_omissions`) so applying the
  adversary is one AND per receiver per round;
* §2 message complexity becomes popcount accumulation over send masks.

The kernel is *not* a second model implementation growing its own
semantics: the object engine stays the oracle.  A
:class:`KernelTrace` materializes — on demand — an
:class:`~repro.sim.execution.Execution` record that is bit-identical
(``==``, and byte-identical under serialization) to what
:class:`~repro.sim.engine.TraceRecorder` records for the same machines
and adversary, a claim enforced three ways in the test-suite: the
golden-equivalence fixtures, the Hypothesis differential tests in
``tests/sim/test_kernel_equivalence.py``, and the :class:`KernelOracle`
observer which steps a shadow kernel against live engine rounds.

Bit-identity mechanics worth knowing:

* delivered mappings are built by ascending-bit iteration, which is
  ascending *sender* order — exactly the object engine's inbox order;
* outgoing mappings are validated inline with the same errors
  (``validate_process_id`` / the self-message ``ProtocolViolation``) the
  object engine raises, at the same round;
* compiled adversaries never send-omit (Definition 1 isolations do
  not), so a simulated row's send-omit masks are all zero; a
  send-omission enters a trace only through Lemma 15's swap
  (:func:`repro.omission.swap.swap_trace`), which moves receive-omit
  bits onto the senders' send-omit masks;
* a row that the swap shares or derives keeps a materialization memo,
  so the materializations of the swap's source and result share their
  :class:`~repro.sim.message.Message` objects and every
  :class:`~repro.sim.state.Fragment` the swap did not change, as the
  fragment surgery of the object construction does; other rows build
  their fragments afresh on every materialization and keep nothing.

:func:`check_trace` is the kernel's Appendix-A checker: it reads the
masks directly, so a checked trace need not be materialized at all.

:class:`PrefixForker` supports the batched isolation scan: a rolling
machine array is advanced through the recorded fault-free schedule and
deep-copied once per *fork round* (memoized), so candidates sharing a
fault-free prefix pay one copy at their divergence round, not one at
every round boundary.

The kernel keeps no tallies of its own work.  A traced attack's
``engine.*`` counters are counted by the driver from the runs it
launches: four masks per process per simulated round, one popcount per
correct sender per round of each message count it takes, and each
forker's ``machines_copied``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import AdversaryError, ModelViolation, ProtocolViolation
from repro.sim.engine import RoundObserver
from repro.sim.execution import Execution
from repro.sim.message import Message
from repro.sim.process import Process, ProcessFactory
from repro.sim.state import Behavior, Fragment, StateSnapshot
from repro.types import Payload, ProcessId, Round, validate_process_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import SimulationConfig


def group_mask(members) -> int:
    """The bitmask with exactly the bits of ``members`` set."""
    mask = 0
    for pid in members:
        mask |= 1 << pid
    return mask


def mask_members(mask: int) -> list[ProcessId]:
    """The ascending process ids whose bits are set in ``mask``."""
    members: list[ProcessId] = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


@dataclass(frozen=True)
class CompiledOmissions:
    """An omission adversary compiled to per-receiver AND-masks.

    For receiver ``r``: in rounds ``>= thresholds[r]`` only senders
    whose bit is set in ``restricted[r]`` get through; with
    ``thresholds[r] is None`` every incoming message is delivered.
    This is exactly the shape of Definition-1 isolations (and the
    trivial no-fault adversary); richer adversaries do not compile and
    the caller must fall back to the object engine.

    Attributes:
        n: system size the masks were compiled for.
        corrupted: the adversary's static corruption set ``F``.
        thresholds: per-receiver isolation round (``None`` = never).
        restricted: per-receiver allowed-sender mask once the threshold
            round is reached.
    """

    n: int
    corrupted: frozenset[ProcessId]
    thresholds: tuple[Round | None, ...]
    restricted: tuple[int, ...]

    def validate_budget(self, n: int, t: int) -> None:
        """Mirror :meth:`repro.sim.adversary.Adversary.validate_budget`."""
        if len(self.corrupted) > t:
            raise AdversaryError(
                f"adversary corrupts {len(self.corrupted)} > t={t}"
            )
        for pid in self.corrupted:
            if not 0 <= pid < n:
                raise AdversaryError(
                    f"corrupted id {pid} outside range({n})"
                )


def no_faults_compiled(n: int) -> CompiledOmissions:
    """The compiled no-fault adversary (nothing restricted, ever)."""
    return CompiledOmissions(
        n=n,
        corrupted=frozenset(),
        thresholds=(None,) * n,
        restricted=((1 << n) - 1,) * n,
    )


class KernelRound:
    """One simulated round in mask representation.

    ``send_masks[s]`` has bit ``r`` set iff ``s`` attempted a message to
    ``r`` (the machine's outgoing set, ``sent ∪ send_omitted``);
    ``send_omit_masks[s]`` marks the ones ``s`` send-omitted;
    ``payloads[s]`` is the sender's ``receiver -> payload`` mapping;
    ``recv_masks[r]`` / ``omit_masks[r]`` split the senders whose
    messages reached ``r`` into delivered and receive-omitted;
    ``decisions`` are the machine decisions *after* this round's
    delivery.

    ``_memo`` is ``None`` until :meth:`share_materialization` is called;
    it is then shared with the rows :meth:`with_omissions` derives.
    """

    __slots__ = ("send_masks", "send_omit_masks", "payloads",
                 "recv_masks", "omit_masks", "decisions", "_memo")

    def __init__(self, send_masks, send_omit_masks, payloads, recv_masks,
                 omit_masks, decisions) -> None:
        self.send_masks = send_masks
        self.send_omit_masks = send_omit_masks
        self.payloads = payloads
        self.recv_masks = recv_masks
        self.omit_masks = omit_masks
        self.decisions = decisions
        self._memo: _RoundMemo | None = None

    def share_materialization(self) -> "_RoundMemo":
        """This round's materialization memo, created on first call: the
        traces that share or derive the row then materialize the same
        :class:`Message` objects, and the same :class:`Fragment` for
        every process whose omissions agree."""
        if self._memo is None:
            self._memo = _RoundMemo()
        return self._memo

    def with_omissions(self, send_omit_masks, omit_masks) -> "KernelRound":
        """This round with other omission masks: the same attempted
        sends, payloads, deliveries and decisions, and the same
        materialization memo."""
        row = KernelRound(
            self.send_masks,
            send_omit_masks,
            self.payloads,
            self.recv_masks,
            omit_masks,
            self.decisions,
        )
        row._memo = self.share_materialization()
        return row

    def messages(self, round_: Round) -> list[list[Message]]:
        """Every attempted message of this round (round ``round_``),
        per sender in ascending receiver order; built once if the row
        keeps a memo, else on every call."""
        memo = self._memo
        if memo is not None and memo.messages is not None:
            return memo.messages
        built = [
            [
                Message(sender, receiver, round_, payloads[receiver])
                for receiver in mask_members(self.send_masks[sender])
            ]
            for sender, payloads in enumerate(self.payloads)
        ]
        if memo is not None:
            memo.messages = built
        return built


class _RoundMemo:
    """What the materializations of rows sharing a memo have in common.

    The rows agree on everything but their omission masks, so a
    process's fragment depends only on which of its messages it
    send-omitted, which messages to it were send-omitted, and its state
    at the start of the round: ``fragments`` is keyed by ``(pid,
    send-omit mask, mask of the senders that send-omitted to pid,
    proposal, decision)``.
    """

    __slots__ = ("messages", "fragments")

    def __init__(self) -> None:
        self.messages: list[list[Message]] | None = None
        self.fragments: dict[tuple, Fragment] = {}


class KernelTrace:
    """The mask-level record of one kernel run.

    A trace answers the questions the lower-bound driver asks of a run
    with the same names :class:`Execution` uses — ``rounds``,
    ``correct``, ``decision``, :meth:`message_complexity` and
    :meth:`quiescent_toward` — straight from the masks, so the driver
    can keep traces as its currency.  :meth:`to_execution` builds the
    bit-identical Appendix-A :class:`Execution` once, lazily, for the
    consumers that need fragments (witnesses and certificates);
    :func:`check_trace` checks the Appendix-A guarantees without it.

    A trace produced by :func:`fork_kernel` *shares* its prefix rounds'
    :class:`KernelRound` rows with the fault-free base trace (structural
    prefix memoization); materializing it never materializes the base.
    """

    __slots__ = ("n", "t", "proposals", "corrupted", "rows", "_execution")

    def __init__(
        self,
        n: int,
        t: int,
        proposals: tuple[Payload, ...],
        corrupted: frozenset[ProcessId],
        rows: list[KernelRound],
    ) -> None:
        self.n = n
        self.t = t
        self.proposals = proposals
        self.corrupted = corrupted
        self.rows = rows
        self._execution: Execution | None = None

    @property
    def rounds(self) -> int:
        """Rounds recorded (shared prefix included)."""
        return len(self.rows)

    @property
    def correct(self) -> frozenset[ProcessId]:
        """The processes outside the corruption set."""
        return frozenset(range(self.n)) - self.corrupted

    def decision(self, pid: ProcessId) -> Payload | None:
        """The final decision of ``pid`` (``None`` if undecided)."""
        return self.rows[-1].decisions[pid]

    def decisions(self) -> tuple[Payload | None, ...]:
        """All final decisions, indexed by process id."""
        return self.rows[-1].decisions

    def message_complexity(self) -> int:
        """§2 message complexity: popcount over correct send masks."""
        corrupted = self.corrupted
        senders = [pid for pid in range(self.n) if pid not in corrupted]
        total = 0
        for row in self.rows:
            masks = row.send_masks
            for pid in senders:
                total += masks[pid].bit_count()
        return total

    def quiescent_toward(self, members, lo: Round, hi: Round) -> bool:
        """Mask form of :meth:`Execution.quiescent_toward`.

        ``True`` iff no message from outside ``members`` targets a
        member (delivered *or* omitted) in rounds ``[lo, hi)``.
        """
        outside = ~group_mask(members)
        pids = sorted(members)
        for index in range(lo - 1, min(hi - 1, len(self.rows))):
            row = self.rows[index]
            for pid in pids:
                if (row.recv_masks[pid] | row.omit_masks[pid]) & outside:
                    return False
        return True

    def to_execution(self) -> Execution:
        """Materialize (once) the bit-identical :class:`Execution`."""
        if self._execution is None:
            self._execution = self._materialize()
        return self._execution

    def _materialize(self) -> Execution:
        n = self.n
        fragments: list[list[Fragment]] = [[] for _ in range(n)]
        previous = None
        for index, row in enumerate(self.rows):
            for pid, fragment in enumerate(
                _round_fragments(
                    row, index + 1, n, self.proposals, previous
                )
            ):
                fragments[pid].append(fragment)
            previous = row.decisions
        final_decisions = self.rows[-1].decisions
        final_round = len(self.rows) + 1
        behaviors = tuple(
            Behavior(
                tuple(fragments[pid]),
                final_state=StateSnapshot(
                    process=pid,
                    round=final_round,
                    proposal=self.proposals[pid],
                    decision=final_decisions[pid],
                ),
            )
            for pid in range(n)
        )
        return Execution(
            n=n, t=self.t, faulty=self.corrupted, behaviors=behaviors
        )


def check_trace(trace: KernelTrace) -> None:
    """Check the A.1.6 execution guarantees on the masks themselves.

    The mask-level counterpart of
    :func:`~repro.sim.execution.check_execution`: a trace that passes
    materializes into an execution that passes too, so a checked trace
    needs no second check after :meth:`KernelTrace.to_execution`.
    Checked per round:

    * the faulty budget ``|F| <= t``, with every faulty id in range;
    * no self-sends;
    * each sender's payload keys are exactly its send-mask bits;
    * each send-omit bit lies inside its sender's send mask, and only
      corrupted senders send-omit (omission-validity);
    * no receiver receives or receive-omits a send-omitted message;
    * no receiver both receives and receive-omits one sender;
    * ``recv | omit`` of each receiver is the transpose of the send
      masks less the send-omit masks — send-validity and
      receive-validity at once;
    * only corrupted receivers receive-omit (omission-validity);
    * decisions are write-once.

    The structural fragment and behavior conditions the object checker
    also walks (one message per ordered pair, stable proposals, rounds
    in sequence) hold by the representation.

    Raises:
        ModelViolation: naming the first violated guarantee.
    """
    n = trace.n
    if len(trace.corrupted) > trace.t:
        raise ModelViolation(
            f"|F| = {len(trace.corrupted)} exceeds t = {trace.t}"
        )
    for pid in trace.corrupted:
        if not 0 <= pid < n:
            raise ModelViolation(f"faulty set names unknown process {pid}")
    corrupted = group_mask(trace.corrupted)
    previous: Sequence[Payload | None] = (None,) * n
    for round_, row in enumerate(trace.rows, start=1):
        incoming = [0] * n
        dropped_to = [0] * n
        for sender in range(n):
            mask = row.send_masks[sender]
            dropped = row.send_omit_masks[sender]
            sender_bit = 1 << sender
            if mask & sender_bit:
                raise ModelViolation(f"p{sender} r{round_}: self-message")
            keys = 0
            for receiver in row.payloads[sender]:
                if not 0 <= receiver < n:
                    raise ModelViolation(
                        f"p{sender} r{round_}: payload for unknown "
                        f"process {receiver}"
                    )
                keys |= 1 << receiver
                if dropped >> receiver & 1:
                    dropped_to[receiver] |= sender_bit
                else:
                    incoming[receiver] |= sender_bit
            if keys != mask:
                raise ModelViolation(
                    f"p{sender} r{round_}: payload receivers "
                    f"{mask_members(keys)} differ from send mask "
                    f"{mask_members(mask)}"
                )
            if dropped & ~mask:
                raise ModelViolation(
                    f"p{sender} r{round_}: send-omits to "
                    f"{mask_members(dropped & ~mask)} outside its send "
                    "mask"
                )
            if dropped and not corrupted >> sender & 1:
                raise ModelViolation(
                    f"omission-validity: p{sender} commits omission "
                    "faults but is not in the faulty set"
                )
        for receiver in range(n):
            received = row.recv_masks[receiver]
            omitted = row.omit_masks[receiver]
            if received & omitted:
                raise ModelViolation(
                    f"p{receiver} r{round_}: received and "
                    "receive-omitted overlap"
                )
            arrived = received | omitted
            if arrived & dropped_to[receiver]:
                raise ModelViolation(
                    f"p{receiver} r{round_}: received or receive-omitted "
                    "messages that "
                    f"{mask_members(arrived & dropped_to[receiver])} "
                    "send-omitted"
                )
            if incoming[receiver] & ~arrived:
                raise ModelViolation(
                    f"send-validity: r{round_} messages from "
                    f"{mask_members(incoming[receiver] & ~arrived)} to "
                    f"p{receiver} neither received nor receive-omitted"
                )
            if arrived & ~incoming[receiver]:
                raise ModelViolation(
                    f"receive-validity: p{receiver} r{round_} received "
                    "or receive-omitted messages from "
                    f"{mask_members(arrived & ~incoming[receiver])} "
                    "that were never sent"
                )
            if omitted and not corrupted >> receiver & 1:
                raise ModelViolation(
                    f"omission-validity: p{receiver} commits omission "
                    "faults but is not in the faulty set"
                )
        decisions = row.decisions
        for pid in range(n):
            before = previous[pid]
            if before is not None and decisions[pid] != before:
                raise ModelViolation(
                    f"p{pid}: decision changed {before!r} -> "
                    f"{decisions[pid]!r} at round {round_ + 1}"
                )
        previous = decisions


def _round_fragments(
    row: KernelRound,
    round_: Round,
    n: int,
    proposals: Sequence[Payload],
    previous_decisions: Sequence[Payload | None] | None,
) -> list[Fragment]:
    """Materialize one round's fragments from its mask row.

    ``previous_decisions`` are the machine decisions after the previous
    round (a state carries the decision *at the start* of its round);
    ``None`` means round 1, where nobody has decided yet.  A
    send-omitted message goes to its sender's ``send_omitted`` and
    reaches nobody; the others go to ``sent`` and to the receiver's
    ``received`` or ``receive_omitted``.  A row with a memo reuses the
    fragments it holds.
    """
    sent: list[list[Message]] = [[] for _ in range(n)]
    send_omitted: list[list[Message]] = [[] for _ in range(n)]
    received: list[list[Message]] = [[] for _ in range(n)]
    omitted: list[list[Message]] = [[] for _ in range(n)]
    dropped_to = [0] * n
    recv_masks = row.recv_masks
    for sender, outgoing in enumerate(row.messages(round_)):
        dropped = row.send_omit_masks[sender]
        sender_bit = 1 << sender
        for message in outgoing:
            receiver = message.receiver
            if dropped >> receiver & 1:
                send_omitted[sender].append(message)
                dropped_to[receiver] |= sender_bit
                continue
            sent[sender].append(message)
            if recv_masks[receiver] & sender_bit:
                received[receiver].append(message)
            else:
                omitted[receiver].append(message)
    memo = row._memo
    empty: frozenset[Message] = frozenset()
    fragments = []
    for pid in range(n):
        decision = (
            previous_decisions[pid] if previous_decisions is not None
            else None
        )
        fragment = None
        if memo is not None:
            key = (
                pid, row.send_omit_masks[pid], dropped_to[pid],
                proposals[pid], decision,
            )
            fragment = memo.fragments.get(key)
        if fragment is None:
            fragment = Fragment(
                state=StateSnapshot(
                    process=pid,
                    round=round_,
                    proposal=proposals[pid],
                    decision=decision,
                ),
                sent=frozenset(sent[pid]),
                send_omitted=(
                    frozenset(send_omitted[pid])
                    if send_omitted[pid]
                    else empty
                ),
                received=frozenset(received[pid]),
                receive_omitted=frozenset(omitted[pid]),
            )
            if memo is not None:
                memo.fragments[key] = fragment
        fragments.append(fragment)
    return fragments


def _step_round(
    machines: Sequence[Process],
    n: int,
    round_: Round,
    compiled: CompiledOmissions,
    no_send_omits: tuple[int, ...],
) -> KernelRound:
    """Simulate one round over masks: collect, AND, deliver.

    ``no_send_omits`` is the all-zero send-omit row (``(0,) * n``),
    shared by every row of a run: compiled adversaries never
    send-omit.

    The send phase accumulates three views in one pass over the
    outgoing mappings — per-sender send masks, per-receiver incoming
    masks, and per-receiver ascending sender lists (ascending because
    the outer loop is) — so the delivery phase never iterates bits:
    unrestricted receivers get one dict comprehension, restricted ones
    one AND plus a filtered comprehension.
    """
    thresholds = compiled.thresholds
    restricted = compiled.restricted
    send_masks = [0] * n
    incoming = [0] * n
    senders_of: list[list[ProcessId]] = [[] for _ in range(n)]
    payload_rows: list[dict[ProcessId, Payload]] = []
    for pid, machine in enumerate(machines):
        mapping = machine.outgoing(round_)
        mask = 0
        sender_bit = 1 << pid
        for receiver in mapping:
            if 0 <= receiver < n and receiver != pid:
                mask |= 1 << receiver
                incoming[receiver] |= sender_bit
                senders_of[receiver].append(pid)
            else:
                # Reproduce the object engine's validation errors
                # (validate_outgoing) exactly, including their order.
                validate_process_id(receiver, n)
                raise ProtocolViolation(
                    f"p{pid} attempted a self-message in round {round_}"
                )
        send_masks[pid] = mask
        payload_rows.append(dict(mapping))
    recv_masks = [0] * n
    omit_masks = [0] * n
    for pid, machine in enumerate(machines):
        arrived = incoming[pid]
        threshold = thresholds[pid]
        if threshold is not None and round_ >= threshold:
            allow = restricted[pid]
            allowed = arrived & allow
            recv_masks[pid] = allowed
            omit_masks[pid] = arrived ^ allowed
            delivered = {
                sender: payload_rows[sender][pid]
                for sender in senders_of[pid]
                if allow >> sender & 1
            }
        else:
            recv_masks[pid] = arrived
            delivered = {
                sender: payload_rows[sender][pid]
                for sender in senders_of[pid]
            }
        machine.deliver(round_, delivered)
    # Read the decision slot directly: the property indirection costs a
    # descriptor call per process per round on the hottest path.
    return KernelRound(
        send_masks,
        no_send_omits,
        payload_rows,
        recv_masks,
        omit_masks,
        tuple(machine._decision for machine in machines),
    )


def _check_round(
    n: int,
    round_: Round,
    proposals: Sequence[Payload],
    previous: Sequence[Payload | None],
    machines: Sequence[Process],
    decisions: Sequence[Payload | None],
) -> None:
    """The kernel's cheap per-round validity checks.

    The structural A.1.4/A.1.6 conditions hold by construction over
    masks (no send-omissions, delivery derived from the send masks), so
    only the machine-behavioral conditions need watching: stable
    proposals and write-once decisions — the same state checks
    :class:`~repro.sim.engine.IncrementalChecker` performs.
    """
    for pid in range(n):
        if machines[pid].proposal != proposals[pid]:
            raise ModelViolation(
                f"p{pid}: proposal changed {proposals[pid]!r} -> "
                f"{machines[pid].proposal!r} at round {round_}"
            )
        before = previous[pid]
        if before is not None and decisions[pid] != before:
            raise ModelViolation(
                f"p{pid}: decision changed {before!r} -> "
                f"{decisions[pid]!r} at round {round_}"
            )


def _simulate(
    machines: list[Process],
    n: int,
    compiled: CompiledOmissions,
    first_round: Round,
    horizon: Round,
    rows: list[KernelRound],
    proposals: tuple[Payload, ...],
    early_stop: str | None,
    check: bool,
    observers: Sequence[RoundObserver],
) -> None:
    """Run rounds ``first_round .. horizon``, appending rows.

    ``early_stop``: ``None`` runs to the horizon; ``"all"`` /
    ``"correct"`` mirror :class:`~repro.sim.engine.EarlyStopPolicy`
    scopes (halt after the round in which the watched processes have
    all decided).  ``observers`` get the count-only hooks: one
    ``start_run`` and then, per simulated round, ``count_round`` with
    the popcount over the correct senders' masks — the same number
    :meth:`~repro.sim.engine.RoundEvent.sent_by_correct` gives the
    object engine's observers.
    """
    if early_stop not in (None, "all", "correct"):
        raise ValueError(f"unknown early-stop scope {early_stop!r}")
    correct = tuple(
        pid for pid in range(n) if pid not in compiled.corrupted
    )
    watched = correct if early_stop == "correct" else None
    for observer in observers:
        observer.start_run()
    previous: Sequence[Payload | None] = (
        rows[-1].decisions if rows else (None,) * n
    )
    no_send_omits = (0,) * n
    for round_ in range(first_round, horizon + 1):
        row = _step_round(machines, n, round_, compiled, no_send_omits)
        if check:
            _check_round(
                n, round_, proposals, previous, machines, row.decisions
            )
        previous = row.decisions
        rows.append(row)
        if observers:
            masks = row.send_masks
            messages = sum(masks[pid].bit_count() for pid in correct)
            for observer in observers:
                observer.count_round(round_, messages)
        if early_stop is not None:
            decisions = row.decisions
            if watched is None:
                done = None not in decisions
            else:
                done = all(
                    decisions[pid] is not None for pid in watched
                )
            if done:
                return


def run_kernel(
    config: "SimulationConfig",
    proposals: Sequence[Payload],
    factory: ProcessFactory,
    compiled: CompiledOmissions,
    *,
    early_stop: str | None = None,
    observers: Sequence[RoundObserver] = (),
) -> KernelTrace:
    """Simulate one execution on the mask kernel from round 1.

    The kernel analogue of :func:`repro.sim.simulator.run_execution`
    for compiled omission adversaries; honors ``config.check`` with the
    kernel's cheap per-round checks (see :func:`_check_round`).
    ``observers`` receive every simulated round through the count-only
    hooks (see :func:`_simulate`).
    """
    if len(proposals) != config.n:
        raise ValueError(
            f"expected {config.n} proposals, got {len(proposals)}"
        )
    compiled.validate_budget(config.n, config.t)
    machines = [
        factory(pid, proposals[pid]) for pid in range(config.n)
    ]
    rows: list[KernelRound] = []
    trace = KernelTrace(
        n=config.n,
        t=config.t,
        proposals=tuple(proposals),
        corrupted=compiled.corrupted,
        rows=rows,
    )
    _simulate(
        machines,
        config.n,
        compiled,
        1,
        config.rounds,
        rows,
        trace.proposals,
        early_stop,
        config.check,
        observers,
    )
    return trace


def fork_kernel(
    config: "SimulationConfig",
    machines: list[Process],
    compiled: CompiledOmissions,
    base: KernelTrace,
    from_round: Round,
    *,
    observers: Sequence[RoundObserver] = (),
) -> KernelTrace:
    """Fan a candidate out of a shared fault-free prefix as a mask delta.

    ``machines`` must be in their start-of-``from_round`` states along
    the fault-free schedule (a :class:`PrefixForker` copy); rounds
    ``1 .. from_round - 1`` are *shared by reference* with ``base``
    (sound because a Definition-1 isolation acts only from its
    isolation round, and machines are deterministic), then rounds
    ``from_round .. horizon`` run under ``compiled``.  Only those
    simulated rounds reach ``observers``.
    """
    if not 1 <= from_round <= config.rounds:
        raise ValueError(
            f"from_round {from_round} outside 1..{config.rounds}"
        )
    if base.rounds < from_round - 1:
        raise ValueError(
            f"base trace spans {base.rounds} rounds; cannot share "
            f"a {from_round - 1}-round prefix"
        )
    compiled.validate_budget(config.n, config.t)
    rows = base.rows[: from_round - 1]
    trace = KernelTrace(
        n=config.n,
        t=config.t,
        proposals=base.proposals,
        corrupted=compiled.corrupted,
        rows=rows,
    )
    _simulate(
        machines,
        config.n,
        compiled,
        from_round,
        config.rounds,
        rows,
        base.proposals,
        None,  # a fork always runs to the horizon
        config.check,
        observers,
    )
    return trace


class PrefixForker:
    """Rolling fault-free replay with memoized fork points.

    The Lemma-4 scan requests machines "at start of round k" for
    ascending ``k``.  One live machine array is advanced through the
    recorded fault-free schedule (calling ``outgoing`` then delivering
    the recorded payloads — the determinism contract requires both
    hooks to fire once per round); at each requested fork round the
    array is deep-copied once and memoized, so revisits (the final
    merge re-runs B(R), B(R+1), C(R)) cost one copy, not a replay.
    Its replays are checkpoint provisioning, not simulation, so they
    report nothing to round observers.  ``machines_copied`` counts the
    machines this forker has deep-copied (the driver's
    ``engine.machine_snapshots``).

    ``enabled`` degrades to ``False`` on deepcopy-hostile machines;
    callers then fall back to fresh runs.
    """

    def __init__(
        self,
        config: "SimulationConfig",
        proposals: Sequence[Payload],
        factory: ProcessFactory,
        base: KernelTrace,
    ) -> None:
        self._config = config
        self._proposals = tuple(proposals)
        self._factory = factory
        self._base = base
        self._machines: list[Process] | None = None
        self._next_round: Round = 1
        self._forks: dict[Round, list[Process]] = {}
        self.enabled = True
        self.machines_copied = 0

    def machines_at(
        self, round_: Round
    ) -> tuple[list[Process] | None, int]:
        """A fresh machine array at start-of-``round_``, plus the number
        of fault-free rounds replayed to get there (0 on a memoized
        fork).  Returns ``(None, 0)`` when disabled."""
        if not self.enabled:
            return None, 0
        try:
            memoized = self._forks.get(round_)
            if memoized is not None:
                return self._copy(memoized), 0
            if self._machines is None or round_ < self._next_round:
                self._machines = [
                    self._factory(pid, self._proposals[pid])
                    for pid in range(self._config.n)
                ]
                self._next_round = 1
            advanced = 0
            while self._next_round < round_:
                self._replay_round(self._next_round)
                self._next_round += 1
                advanced += 1
            snapshot = self._copy(self._machines)
            self._forks[round_] = snapshot
            return self._copy(snapshot), advanced
        except Exception:  # deepcopy-hostile machines: degrade
            self.enabled = False
            self._forks.clear()
            return None, 0

    def _copy(self, machines: list[Process]) -> list[Process]:
        copied = copy.deepcopy(machines)
        self.machines_copied += len(copied)
        return copied

    def _replay_round(self, round_: Round) -> None:
        assert self._machines is not None
        row = self._base.rows[round_ - 1]
        recv_masks = row.recv_masks
        payload_rows = row.payloads
        for pid, machine in enumerate(self._machines):
            machine.outgoing(round_)  # contract: called once per round
            delivered: dict[ProcessId, Payload] = {}
            mask = recv_masks[pid]
            while mask:
                low = mask & -mask
                sender = low.bit_length() - 1
                delivered[sender] = payload_rows[sender][pid]
                mask ^= low
            machine.deliver(round_, delivered)


class KernelOracle(RoundObserver):
    """Cross-checks kernel rounds against live object-engine rounds.

    Attach to a :class:`~repro.sim.engine.RoundEngine` run: a shadow
    copy of the machines steps through the mask kernel in lock-step,
    and every :class:`~repro.sim.engine.RoundEvent`'s fragments and
    decisions must match the kernel round exactly.  The enforcement arm
    of the "object engine stays the oracle" invariant — used by the
    equivalence tests, not on production paths.
    """

    def __init__(self) -> None:
        self.rounds_checked = 0
        self._compiled: CompiledOmissions | None = None
        self._machines: list[Process] = []
        self._proposals: tuple[Payload, ...] = ()
        self._previous: tuple[Payload | None, ...] = ()
        self._n = 0

    def on_run_start(self, config, machines, adversary) -> None:
        from repro.omission.masks import compile_omissions

        compiled = compile_omissions(adversary, config.n)
        if compiled is None:
            raise ValueError(
                f"{type(adversary).__name__} does not compile to masks; "
                "the oracle needs a kernel-representable adversary"
            )
        self._compiled = compiled
        self._n = config.n
        self._machines = copy.deepcopy(list(machines))
        self._proposals = tuple(m.proposal for m in machines)
        self._previous = tuple(m.decision for m in machines)

    def on_round(self, event) -> None:
        assert self._compiled is not None
        row = _step_round(
            self._machines, self._n, event.round, self._compiled,
            (0,) * self._n,
        )
        fragments = tuple(
            _round_fragments(
                row, event.round, self._n, self._proposals,
                self._previous,
            )
        )
        if fragments != event.fragments:
            raise ModelViolation(
                f"kernel oracle: fragments diverge at round {event.round}"
            )
        if row.decisions != event.decisions:
            raise ModelViolation(
                f"kernel oracle: decisions diverge at round "
                f"{event.round}: kernel {row.decisions!r} vs engine "
                f"{event.decisions!r}"
            )
        self._previous = row.decisions
        self.rounds_checked += 1
