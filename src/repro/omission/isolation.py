"""Group isolation (Definition 1, Figure 1).

A group ``G ⊊ Π`` of at most ``t`` processes is *isolated from round k* in
an execution iff every ``p ∈ G``:

* is faulty;
* send-omits nothing;
* receive-omits a message ``m`` iff ``m``'s sender is outside ``G`` and
  ``m`` travels in a round ``>= k``.

:class:`IsolationAdversary` realizes the strategy (possibly for several
disjoint groups at once, as the merged executions of §3 require), and
:func:`check_isolated` verifies the *iff* of Definition 1 on a recorded
execution.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import AdversaryError, ModelViolation
from repro.sim.adversary import Adversary
from repro.sim.execution import Execution
from repro.sim.message import Message
from repro.types import ProcessId, Round


class IsolationAdversary(Adversary):
    """Omission adversary isolating one or more disjoint groups.

    Args:
        isolations: mapping from each group (any iterable of ids) to the
            round from which it is isolated.  Groups must be disjoint; all
            their members become corrupted.

    The strategy commits no send-omissions and receive-omits exactly the
    messages Definition 1 prescribes, so a simulated run under this
    adversary satisfies ``check_isolated`` by construction (asserted in the
    test-suite).
    """

    def __init__(
        self,
        isolations: Mapping[Iterable[ProcessId] | frozenset[ProcessId], Round],
    ) -> None:
        groups: dict[frozenset[ProcessId], Round] = {}
        for group, from_round in isolations.items():
            frozen = frozenset(group)
            if not frozen:
                raise AdversaryError("cannot isolate an empty group")
            if from_round < 1:
                raise AdversaryError(
                    f"isolation round must be >= 1, got {from_round}"
                )
            groups[frozen] = from_round
        members: list[ProcessId] = []
        for group in groups:
            members.extend(group)
        if len(members) != len(set(members)):
            raise AdversaryError("isolated groups must be disjoint")
        super().__init__(members)
        self._groups = groups

    @property
    def isolations(self) -> dict[frozenset[ProcessId], Round]:
        """The isolated groups and their isolation rounds."""
        return dict(self._groups)

    def receive_omits(self, message: Message) -> bool:
        for group, from_round in self._groups.items():
            if (
                message.receiver in group
                and message.sender not in group
                and message.round >= from_round
            ):
                return True
        return False


def isolate_group(
    group: Iterable[ProcessId], from_round: Round
) -> IsolationAdversary:
    """Shorthand for isolating a single group (the paper's ``E_b^{G(k)}``)."""
    return IsolationAdversary({frozenset(group): from_round})


def check_isolated(
    execution: Execution,
    group: Iterable[ProcessId],
    from_round: Round,
) -> None:
    """Verify Definition 1 for ``group`` in a recorded execution.

    Raises:
        ModelViolation: if any clause of Definition 1 fails — the group is
            not within the faulty set, a member send-omits, a member
            receive-omits a message it should receive, or fails to
            receive-omit a message it should drop.
    """
    members = frozenset(group)
    if not members:
        raise ModelViolation("empty group cannot be isolated")
    if len(members) > execution.t:
        raise ModelViolation(
            f"group of {len(members)} exceeds t={execution.t}"
        )
    if members == frozenset(range(execution.n)):
        raise ModelViolation("an isolated group must be a proper subset")
    if not members <= execution.faulty:
        raise ModelViolation(
            f"isolated group {sorted(members)} not within faulty set "
            f"{sorted(execution.faulty)}"
        )
    for pid in sorted(members):
        behavior = execution.behavior(pid)
        if behavior.all_send_omitted():
            raise ModelViolation(
                f"p{pid} send-omits despite isolation (Definition 1)"
            )
        for round_ in range(1, behavior.rounds + 1):
            fragment = behavior.fragment(round_)
            for message in fragment.received:
                if (
                    message.sender not in members
                    and message.round >= from_round
                ):
                    raise ModelViolation(
                        f"p{pid} received {message} which isolation from "
                        f"round {from_round} requires dropping"
                    )
            for message in fragment.receive_omitted:
                if message.sender in members:
                    raise ModelViolation(
                        f"p{pid} receive-omitted in-group message {message}"
                    )
                if message.round < from_round:
                    raise ModelViolation(
                        f"p{pid} receive-omitted {message} before the "
                        f"isolation round {from_round}"
                    )
