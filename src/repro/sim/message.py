"""Messages of the synchronous computational model (Appendix A.1.1).

Each message encodes its sender, its receiver and the round in which it is
sent.  Because the model allows at most one message per ordered pair of
processes per round, the triple ``(sender, receiver, round)`` uniquely
identifies a message *slot* within an execution; the payload carries the
protocol-level content.

Messages are immutable and compare by value, which is what the paper's
indistinguishability arguments need: "the same message" in two executions
means equal sender, receiver, round and payload.

Building a message counts nothing: the §2 cost of an execution is its
:meth:`~repro.sim.execution.Execution.message_complexity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.types import Payload, ProcessId, Round

_PAIR_CACHE: dict[
    tuple[ProcessId, ProcessId], tuple[ProcessId, ProcessId]
] = {}


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

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild via __init__ so the hash is recomputed under the
        # destination interpreter's hash seed (and the pair re-interned
        # in its cache).
        return (Message, (self.sender, self.receiver, self.round,
                          self.payload))
