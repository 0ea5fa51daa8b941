"""Messages of the synchronous computational model (Appendix A.1.1).

Each message encodes its sender, its receiver and the round in which it is
sent.  Because the model allows at most one message per ordered pair of
processes per round, the triple ``(sender, receiver, round)`` uniquely
identifies a message *slot* within an execution; the payload carries the
protocol-level content.

Messages are immutable and compare by value, which is what the paper's
indistinguishability arguments need: "the same message" in two executions
means equal sender, receiver, round and payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.types import Payload, ProcessId, Round

_PAIR_CACHE: dict[
    tuple[ProcessId, ProcessId], tuple[ProcessId, ProcessId]
] = {}


class _MaterializationCounts:
    """Process-wide tallies of sim objects built since interpreter start.

    Monotone, cheap (one integer increment at each construction site) and
    never reset: consumers such as the driver's trace counters take
    *deltas* around a measured region (see
    :func:`repro.sim.engine.object_counts`).  The counts are a memory
    proxy the wall clock cannot see — a kernel that got faster by
    materializing twice as many messages shows up here.

    ``masks`` and ``popcounts`` belong to the bitmask round kernel
    (:mod:`repro.sim.kernel`): per-round send/receive bitmasks built and
    popcount accumulations performed, the kernel-representation analogue
    of ``messages``.
    """

    __slots__ = ("messages", "channels", "masks", "popcounts")

    def __init__(self) -> None:
        self.messages = 0
        self.channels = 0
        self.masks = 0
        self.popcounts = 0


MATERIALIZED = _MaterializationCounts()
"""The interpreter-wide message/channel construction tallies."""


def intern_pair(
    sender: ProcessId, receiver: ProcessId
) -> tuple[ProcessId, ProcessId]:
    """The canonical ``(sender, receiver)`` tuple for a channel.

    Every message in an execution's flat send-sets travels one of at most
    ``n·(n-1)`` channels, but a naive tuple per message allocates (and
    validates) the pair over and over.  Interning returns one shared
    tuple object per channel and performs the self-message check once,
    when the channel is first seen.  The cache is bounded by the square
    of the largest process count ever simulated in this interpreter.

    Raises:
        ValueError: if ``sender == receiver`` (A.1: no self-messages).
    """
    pair = (sender, receiver)
    cached = _PAIR_CACHE.get(pair)
    if cached is not None:
        return cached
    if sender == receiver:
        raise ValueError("no process sends messages to itself (A.1)")
    _PAIR_CACHE[pair] = pair
    MATERIALIZED.channels += 1
    return pair


@dataclass(frozen=True, slots=True)
class Message:
    """A single message of the model.

    The value hash is precomputed at construction (messages spend their
    lives inside frozensets — per-round send-sets, fragment message sets,
    the engine's flat ``all_sent`` view — so each message is hashed many
    times but created once).  The cached hash never crosses a process
    boundary: string hashing is randomized per interpreter, so pickling
    reconstructs the message through ``__init__`` (see ``__reduce__``).

    Attributes:
        sender: the process that sends the message (``m.sender``).
        receiver: the destination process (``m.receiver``).
        round: the 1-based round in which the message travels (``m.round``).
        payload: protocol-defined, hashable content.
    """

    sender: ProcessId
    receiver: ProcessId
    round: Round
    payload: Payload = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pair = intern_pair(self.sender, self.receiver)
        if self.round < 1:
            raise ValueError(f"rounds start at 1, got {self.round}")
        object.__setattr__(
            self, "_hash", hash((pair, self.round, self.payload))
        )
        MATERIALIZED.messages += 1

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild via __init__ so the hash is recomputed under the
        # destination interpreter's hash seed (and the pair re-interned
        # in its cache).
        return (Message, (self.sender, self.receiver, self.round,
                          self.payload))

    @property
    def slot(self) -> tuple[ProcessId, ProcessId, Round]:
        """The ``(sender, receiver, round)`` triple identifying the slot."""
        return (self.sender, self.receiver, self.round)

    @property
    def pair(self) -> tuple[ProcessId, ProcessId]:
        """The interned ``(sender, receiver)`` channel tuple."""
        return intern_pair(self.sender, self.receiver)

    def with_payload(self, payload: Payload) -> "Message":
        """Return a copy of this message carrying ``payload`` instead."""
        return Message(self.sender, self.receiver, self.round, payload)


def check_one_per_receiver(messages: frozenset[Message] | set[Message]) -> None:
    """Raise if two messages in ``messages`` target the same receiver.

    Used by the fragment checker for the sent side (condition 9 of A.1.4).
    """
    seen: set[ProcessId] = set()
    for message in messages:
        if message.receiver in seen:
            raise ValueError(
                f"two messages to receiver {message.receiver} in one round"
            )
        seen.add(message.receiver)


def check_one_per_sender(messages: frozenset[Message] | set[Message]) -> None:
    """Raise if two messages in ``messages`` come from the same sender.

    Used by the fragment checker for the received side (condition 10 of
    A.1.4).
    """
    seen: set[ProcessId] = set()
    for message in messages:
        if message.sender in seen:
            raise ValueError(
                f"two messages from sender {message.sender} in one round"
            )
        seen.add(message.sender)


@dataclass(frozen=True, slots=True)
class Outbox:
    """Convenience builder for a process's per-round outgoing messages.

    Protocol implementations return a mapping ``receiver -> payload``; the
    simulator converts it to :class:`Message` objects.  ``Outbox`` is a thin
    named wrapper that validates the mapping eagerly so protocol bugs fail
    close to their source.
    """

    sender: ProcessId
    round: Round
    by_receiver: tuple[tuple[ProcessId, Payload], ...] = field(default=())

    @classmethod
    def from_mapping(
        cls,
        sender: ProcessId,
        round_: Round,
        mapping: dict[ProcessId, Payload],
    ) -> "Outbox":
        """Build an outbox from a ``receiver -> payload`` mapping."""
        items = tuple(sorted(mapping.items()))
        for receiver, _ in items:
            if receiver == sender:
                raise ValueError("no process sends messages to itself (A.1)")
        return cls(sender=sender, round=round_, by_receiver=items)

    def to_messages(self) -> frozenset[Message]:
        """Materialize the outbox as a set of :class:`Message` objects."""
        return frozenset(
            Message(self.sender, receiver, self.round, payload)
            for receiver, payload in self.by_receiver
        )


def broadcast_payload(
    sender: ProcessId, n: int, payload: Payload
) -> dict[ProcessId, Payload]:
    """Mapping sending ``payload`` to every process except ``sender``.

    A helper for the common all-but-self broadcast pattern in protocols.
    """
    return {pid: payload for pid in range(n) if pid != sender}


def messages_by_slot(
    messages: frozenset[Message] | set[Message],
) -> dict[tuple[ProcessId, ProcessId, Round], Message]:
    """Index a message set by its ``(sender, receiver, round)`` slot."""
    index: dict[tuple[ProcessId, ProcessId, Round], Message] = {}
    for message in messages:
        slot = message.slot
        if slot in index:
            raise ValueError(f"duplicate slot {slot}")
        index[slot] = message
    return index


def freeze(messages: set[Message] | frozenset[Message] | None) -> frozenset[Message]:
    """Return ``messages`` as a frozenset, treating ``None`` as empty."""
    if messages is None:
        return frozenset()
    return frozenset(messages)


def payload_size(payload: Payload) -> int:
    """A crude, deterministic size estimate of a payload in abstract units.

    Used only by the optional bit-complexity counters in
    :mod:`repro.sim.metrics`; the paper's bound is on *messages*, which we
    count exactly, while sizes are informational.
    """
    if payload is None:
        return 1
    if isinstance(payload, (bool, int)):
        return 1
    if isinstance(payload, str):
        return max(1, len(payload))
    if isinstance(payload, (bytes, bytearray)):
        return max(1, len(payload))
    if isinstance(payload, tuple):
        return 1 + sum(payload_size(element) for element in payload)
    if isinstance(payload, frozenset):
        return 1 + sum(payload_size(element) for element in payload)
    return 1
