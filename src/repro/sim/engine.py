"""The event-driven round engine and its pluggable observers.

The synchronous round loop (§2, A.1) is a fixed skeleton: compute states,
collect sends, apply the adversary's omissions, deliver.  Everything that
*varies* between callers — recording a full Appendix-A trace, accounting
message complexity, validating the model conditions, deciding when a run
may halt — is a per-round *observation*.  :class:`RoundEngine` therefore
emits one :class:`RoundEvent` per simulated round to a list of
:class:`RoundObserver` instances, each of which consumes the event stream
independently:

* :class:`TraceRecorder` — accumulates the fragments into the classic
  :class:`~repro.sim.execution.Execution` record, bit-for-bit identical to
  the pre-engine recorder (asserted by the golden-equivalence tests).
* :class:`IncrementalChecker` — enforces the Appendix-A fragment and
  execution conditions *round by round*, so a model violation aborts the
  run at the offending round instead of after the horizon.
* :class:`EarlyStopPolicy` — requests a halt once the watched processes
  have all decided.  Sound because decisions are write-once (A.1.5
  condition 6) and every protocol declares a sound ``max_rounds(n, t)``:
  the truncated run is a prefix of the full run with the same decisions.

Observers must not mutate the event or the machines; the engine owns both.
An observer may set its ``stop_requested`` attribute to ``True`` during
:meth:`RoundObserver.on_round`; the engine finishes dispatching the
current round to every observer, then halts.

Counting is an observer's job too: the module keeps no interpreter-wide
tallies, so a count of engine work lives with whoever ran the rounds
(the driver's ``engine.*`` counters, a tracer's ``engine.round``
events).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ModelViolation
from repro.sim.adversary import Adversary
from repro.sim.execution import Execution
from repro.sim.message import Message
from repro.sim.process import Process
from repro.sim.state import Behavior, Fragment, StateSnapshot, check_fragment
from repro.types import Payload, ProcessId, Round

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import SimulationConfig


@dataclass(frozen=True)
class RoundEvent:
    """Everything an omniscient observer sees of one simulated round.

    Attributes:
        round: the 1-based round just simulated.
        corrupted: the adversary's corruption set *as of this round*
            (monotone under adaptive adversaries).
        fragments: the A.1.4 fragment of each process for this round,
            indexed by process id.
        all_sent: every message successfully sent this round, as one flat
            set (built once; also what the adversary's ``observe_round``
            hook receives).
        decisions: each process's decision *after* this round's delivery
            (``None`` while undecided).
    """

    round: Round
    corrupted: frozenset[ProcessId]
    fragments: tuple[Fragment, ...]
    all_sent: frozenset[Message]
    decisions: tuple[Payload | None, ...]

    def sent_by_correct(self) -> int:
        """Messages sent this round by processes outside ``corrupted``.

        The round's contribution to the §2 message complexity under the
        *current* corruption set — the quantity the tracing observer
        streams against the ``t²/32`` floor.  (An adaptive adversary may
        corrupt a sender later; final accounting always filters by the
        run's final faulty set, as :meth:`Execution.message_complexity`
        does.)
        """
        return sum(
            len(fragment.sent)
            for pid, fragment in enumerate(self.fragments)
            if pid not in self.corrupted
        )


class RoundObserver:
    """Base observer: all hooks are no-ops.

    Set ``self.stop_requested = True`` from :meth:`on_round` to ask the
    engine to halt after the current round (see :class:`EarlyStopPolicy`).
    """

    stop_requested: bool = False

    def on_run_start(
        self,
        config: "SimulationConfig",
        machines: Sequence[Process],
        adversary: Adversary,
    ) -> None:
        """Called once before the first simulated round."""

    def on_round(self, event: RoundEvent) -> None:
        """Called after each round's delivery completes."""

    def on_run_end(
        self,
        final_states: tuple[StateSnapshot, ...],
        corrupted: frozenset[ProcessId],
    ) -> None:
        """Called once after the last simulated round.

        ``final_states`` are the states at the start of the (never
        simulated) next round; ``corrupted`` is the adversary's final
        corruption set — the execution's faulty set ``F``.
        """

    # The count-only hooks.  The mask kernel (:mod:`repro.sim.kernel`)
    # builds no RoundEvent, so it reports its runs through these
    # instead; observers that only count rounds and messages implement
    # both families.

    def start_run(self) -> None:
        """Called once before the first round of a kernel run."""

    def count_round(self, round_: Round, messages: int) -> None:
        """Called after each kernel round with its correct-sender
        message count (the §2 contribution of the round)."""


class RoundEngine:
    """Drives deterministic machines round by round, emitting events.

    Args:
        config: system size, corruption budget and horizon.
        machines: the ``n`` state machines, indexed by process id.
        adversary: the (static or adaptive) adversary to consult.
        observers: event consumers, notified in list order.
    """

    def __init__(
        self,
        config: "SimulationConfig",
        machines: Sequence[Process],
        adversary: Adversary,
        observers: Sequence[RoundObserver] = (),
    ) -> None:
        self._config = config
        self._machines = list(machines)
        self._adversary = adversary
        self._observers = list(observers)
        self.rounds_run = 0
        self.stopped_early = False
        self.last_round = 0

    def run(self) -> None:
        """Simulate rounds until the horizon or an observer's stop request."""
        for observer in self._observers:
            observer.on_run_start(
                self._config, self._machines, self._adversary
            )
        for round_ in range(1, self._config.rounds + 1):
            event = self._step(round_)
            for observer in self._observers:
                observer.on_round(event)
            self.rounds_run += 1
            self.last_round = round_
            if any(
                observer.stop_requested for observer in self._observers
            ):
                self.stopped_early = round_ < self._config.rounds
                break
        final_states = tuple(
            machine.snapshot(self.last_round + 1)
            for machine in self._machines
        )
        for observer in self._observers:
            observer.on_run_end(final_states, self._adversary.corrupted)

    def _step(self, round_: Round) -> RoundEvent:
        """Simulate one round: states, sends, omissions, delivery."""
        adversary = self._adversary
        adversary.begin_round(round_)
        corrupted = adversary.corrupted
        machines = self._machines
        states = [machine.snapshot(round_) for machine in machines]
        sent: list[set[Message]] = [set() for _ in machines]
        send_omitted: list[set[Message]] = [set() for _ in machines]
        inboxes: list[list[Message]] = [[] for _ in machines]
        round_sent: set[Message] = set()
        for pid, machine in enumerate(machines):
            mapping = machine.validate_outgoing(
                round_, machine.outgoing(round_)
            )
            for receiver, payload in mapping.items():
                message = Message(pid, receiver, round_, payload)
                if pid in corrupted and adversary.send_omits(message):
                    send_omitted[pid].add(message)
                else:
                    sent[pid].add(message)
                    inboxes[receiver].append(message)
                    round_sent.add(message)
        fragments: list[Fragment] = []
        for pid, machine in enumerate(machines):
            # Single pass over the inbox: messages are unique per
            # (sender, receiver, round), and the inbox is already in
            # ascending sender order, so the delivered mapping needs no
            # sort and no intermediate rebuild.
            received: set[Message] = set()
            receive_omitted: set[Message] = set()
            delivered: dict[ProcessId, Payload] = {}
            if pid in corrupted:
                for message in inboxes[pid]:
                    if adversary.receive_omits(message):
                        receive_omitted.add(message)
                    else:
                        received.add(message)
                        delivered[message.sender] = message.payload
            else:
                for message in inboxes[pid]:
                    received.add(message)
                    delivered[message.sender] = message.payload
            fragments.append(
                Fragment(
                    state=states[pid],
                    sent=frozenset(sent[pid]),
                    send_omitted=frozenset(send_omitted[pid]),
                    received=frozenset(received),
                    receive_omitted=frozenset(receive_omitted),
                )
            )
            machine.deliver(round_, delivered)
        all_sent = frozenset(round_sent)
        adversary.observe_round(round_, all_sent)
        return RoundEvent(
            round=round_,
            corrupted=corrupted,
            fragments=tuple(fragments),
            all_sent=all_sent,
            decisions=tuple(machine.decision for machine in machines),
        )


class TraceRecorder(RoundObserver):
    """Accumulates events into the classic :class:`Execution` record."""

    def __init__(self) -> None:
        self._fragments: list[list[Fragment]] = []
        self._config: "SimulationConfig | None" = None
        self._final_states: tuple[StateSnapshot, ...] = ()
        self._corrupted: frozenset[ProcessId] = frozenset()

    def on_run_start(self, config, machines, adversary) -> None:
        self._config = config
        self._fragments = [[] for _ in range(config.n)]

    def on_round(self, event: RoundEvent) -> None:
        for pid, fragment in enumerate(event.fragments):
            self._fragments[pid].append(fragment)

    def on_run_end(self, final_states, corrupted) -> None:
        self._final_states = final_states
        self._corrupted = corrupted

    def execution(self) -> Execution:
        """The recorded execution (call after the engine's run)."""
        assert self._config is not None, "engine never ran"
        behaviors = tuple(
            Behavior(
                tuple(self._fragments[pid]),
                final_state=self._final_states[pid],
            )
            for pid in range(self._config.n)
        )
        return Execution(
            n=self._config.n,
            t=self._config.t,
            faulty=self._corrupted,
            behaviors=behaviors,
        )


class IncrementalChecker(RoundObserver):
    """Round-by-round enforcement of the A.1.4–A.1.6 conditions.

    Covers the same guarantees as
    :func:`repro.sim.execution.check_execution` — fragment structure,
    send-validity, receive-validity, omission-validity, proposal
    stability, write-once decisions and the faulty budget — but raises at
    the *first offending round* instead of after the horizon.  Intended
    for live engine runs; post-hoc surgery products (swap/merge outputs)
    keep using ``check_execution``.
    """

    def __init__(self) -> None:
        self._t = 0
        self._proposals: list[Payload] = []
        self._decisions: list[Payload | None] = []

    def on_run_start(self, config, machines, adversary) -> None:
        self._t = config.t
        self._proposals = [machine.proposal for machine in machines]
        self._decisions = [None] * config.n

    def on_round(self, event: RoundEvent) -> None:
        by_receiver = {
            pid: fragment.all_incoming
            for pid, fragment in enumerate(event.fragments)
        }
        by_sender = {
            pid: fragment.sent
            for pid, fragment in enumerate(event.fragments)
        }
        for pid, fragment in enumerate(event.fragments):
            check_fragment(fragment)  # the ten A.1.4 conditions
            self._check_state(pid, fragment.state, event.round)
            if fragment.commits_fault and pid not in event.corrupted:
                raise ModelViolation(
                    f"omission-validity: p{pid} commits omission faults "
                    f"in round {event.round} but is not corrupted"
                )
            for message in fragment.sent:  # send-validity
                if message not in by_receiver[message.receiver]:
                    raise ModelViolation(
                        f"send-validity: {message} sent but neither "
                        "received nor receive-omitted"
                    )
            for message in fragment.all_incoming:  # receive-validity
                if message not in by_sender[message.sender]:
                    raise ModelViolation(
                        f"receive-validity: {message} received or "
                        "receive-omitted but never successfully sent"
                    )

    def on_run_end(self, final_states, corrupted) -> None:
        if len(corrupted) > self._t:
            raise ModelViolation(
                f"|F| = {len(corrupted)} exceeds t = {self._t}"
            )
        for pid, state in enumerate(final_states):
            self._check_state(pid, state, state.round)

    def _check_state(
        self, pid: ProcessId, state: StateSnapshot, round_: Round
    ) -> None:
        if state.process != pid:
            raise ModelViolation(
                f"behavior of p{pid} carries state of p{state.process}"
            )
        if state.proposal != self._proposals[pid]:
            raise ModelViolation(
                f"p{pid}: proposal changed {self._proposals[pid]!r} -> "
                f"{state.proposal!r} at round {round_}"
            )
        previous = self._decisions[pid]
        if previous is None:
            self._decisions[pid] = state.decision
        elif state.decision != previous:
            raise ModelViolation(
                f"p{pid}: decision changed {previous!r} -> "
                f"{state.decision!r} at round {round_}"
            )


class EarlyStopPolicy(RoundObserver):
    """Halts the engine once the watched processes have all decided.

    With ``scope="correct"`` (the default, the paper's termination
    condition) the policy watches processes outside the adversary's
    current corruption set; with ``scope="all"`` it waits for *every*
    process — the conservative mode the lower-bound driver uses so that
    faulty-group decisions (queried by the Lemma-2 majority check) are
    also final in the truncated record.

    Soundness: decisions are write-once and every protocol's declared
    horizon is a sound decision bound, so the truncated execution is a
    prefix of the full one carrying identical decisions.  Message counts
    may differ for protocols that keep talking after deciding — the §2
    complexity metric *does* charge those messages, so complexity
    measurements must run without early stop (or compare, as the
    equivalence tests do).
    """

    def __init__(self, scope: str = "correct") -> None:
        if scope not in ("correct", "all"):
            raise ValueError(f"unknown scope {scope!r}")
        self.scope = scope
        self.stopped_at: Round | None = None

    def on_round(self, event: RoundEvent) -> None:
        if self.stop_requested:
            return
        if self.scope == "all":
            undecided = any(
                decision is None for decision in event.decisions
            )
        else:
            undecided = any(
                decision is None
                for pid, decision in enumerate(event.decisions)
                if pid not in event.corrupted
            )
        if not undecided:
            self.stop_requested = True
            self.stopped_at = event.round
