"""Exponential Information Gathering (EIG) agreement ([78], [82]; §5.2).

The classic unauthenticated synchronous algorithm for ``n > 3t``: for
``t+1`` rounds every process relays everything it has heard, organized as a
tree of *labels* — a label ``(j_1, ..., j_r)`` stores "``j_r`` said that
``j_{r-1}`` said that ... ``j_1`` proposed ``v``".  After round ``t+1`` the
tree is resolved bottom-up by strict majority; the key lemma (``n > 3t``)
makes the resolved level-1 vector *identical at all correct processes*.

Two decision modes share the machinery:

* ``consensus`` — decide the majority value of the resolved level-1 vector
  (strong consensus: Agreement + Strong Validity);
* ``vector`` — decide the resolved level-1 vector itself, which is exactly
  *interactive consistency* (IC-Validity: the slot of every correct
  process holds its proposal), the pivot of the sufficiency proof of the
  general solvability theorem (Lemma 9).

Message complexity is Θ(n^{t+1}) entries in the worst case — exponential
information gathering earns its name; use small ``t``.

The tree is resolved level by level, not by recursion: listing the
labels of length ``d + 1`` in :func:`itertools.permutations` order puts
the children of each length-``d`` label next to each other, ``n - d`` of
them, in the order the labels of length ``d`` are listed.  So the leaf
values fold into the level-1 vector one strict-majority pass per level.

Relayed payloads are validated once, not once per receiver.  Whether an
entry of a relayed payload is accepted depends only on ``(payload,
round, sender, n)``, and a correct sender hands the *same* tuple to all
``n - 1`` receivers; so the spec's processes share a
:class:`~repro.protocols.base.RoundMemo` that turns each ``(payload,
sender)`` into its accepted ``{label + (sender,): value}`` dict once per
round, and each receiver merges that dict first-wins.  The memo keys by
payload *identity*: keying by equality would be wrong, because ``(1.0,
2) == (1, 2)`` and ``True == 1`` while the label check rejects float
labels — a Byzantine payload equal to a correct one must still be
validated on its own.
"""

from __future__ import annotations

from itertools import permutations
from typing import Literal, Mapping

from repro.protocols.base import ProtocolSpec, RoundMemo
from repro.sim.process import Process
from repro.types import Payload, ProcessId, Round

Label = tuple[ProcessId, ...]

DecisionMode = Literal["consensus", "vector"]


class EIGProcess(Process):
    """One process of EIG agreement.

    Args:
        pid, n, t, proposal: as usual; requires ``n > 3t``.
        default: the fallback value used when majorities fail.
        mode: ``"consensus"`` or ``"vector"`` (see module docstring).
        memo: the :class:`~repro.protocols.base.RoundMemo` shared by
            the spec's processes (a private one when omitted).
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        proposal: Payload,
        default: Payload = 0,
        mode: DecisionMode = "consensus",
        memo: RoundMemo | None = None,
    ) -> None:
        if n <= 3 * t:
            raise ValueError(
                f"EIG requires n > 3t, got n={n}, t={t} "
                "(Theorem 4's unauthenticated threshold)"
            )
        super().__init__(pid, n, t, proposal)
        self.default = default
        self.mode = mode
        self._val: dict[Label, Payload] = {}
        self._memo = RoundMemo() if memo is None else memo

    @property
    def last_round(self) -> Round:
        """Round ``t+1``, after which the tree is resolved."""
        return self.t + 1

    def outgoing(self, round_: Round) -> dict[ProcessId, Payload]:
        if round_ > self.last_round:
            return {}
        entries = self._entries_for_round(round_)
        # Self-simulation: the model forbids self-messages, so record what
        # this process "tells itself" directly (standard EIG lets a process
        # be its own informant).
        for label, value in entries:
            self._store(label + (self.pid,), value)
        if not entries:
            return {}
        payload = tuple(sorted(entries, key=lambda e: (e[0], repr(e[1]))))
        return {
            other: payload
            for other in range(self.n)
            if other != self.pid
        }

    def _entries_for_round(
        self, round_: Round
    ) -> list[tuple[Label, Payload]]:
        """Level ``round_ - 1`` entries not already relayed through us."""
        if round_ == 1:
            return [((), self.proposal)]
        wanted = round_ - 1
        return [
            (label, value)
            for label, value in sorted(
                self._val.items(), key=lambda e: e[0]
            )
            if len(label) == wanted and self.pid not in label
        ]

    def _store(self, label: Label, value: Payload) -> None:
        if label not in self._val:
            self._val[label] = value

    def deliver(
        self, round_: Round, received: Mapping[ProcessId, Payload]
    ) -> None:
        if round_ > self.last_round:
            return
        store = self._val.setdefault
        memo = self._memo.get
        for sender, payload in sorted(received.items()):
            accepted = memo(
                round_, payload, sender,
                _accepted_entries, payload, round_, sender, self.n,
            )
            for label, value in accepted.items():
                store(label, value)
        if round_ == self.last_round:
            self._decide_now()

    def _decide_now(self) -> None:
        vector = self.resolved_vector()
        if self.mode == "vector":
            self.decide(tuple(vector))
        else:
            self.decide(
                _strict_majority(vector, default=self.default)
            )

    def resolved_vector(self) -> list[Payload]:
        """The resolved level-1 vector ``W`` (common to correct processes).

        Folds the leaves (labels of length ``t + 1``) bottom-up: the
        children of a length-``d`` label are ``n - d`` consecutive
        labels of length ``d + 1`` (see the module docstring).
        """
        default = self.default
        get = self._val.get
        values = [
            get(label, default)
            for label in permutations(range(self.n), self.t + 1)
        ]
        for size in range(self.n - self.t, self.n):
            values = [
                _strict_majority(values[start:start + size], default)
                for start in range(0, len(values), size)
            ]
        return values


def _strict_majority(
    values: list[Payload], default: Payload
) -> Payload:
    """The value held by a strict majority of ``values``, else ``default``.

    Returns that value's first occurrence.  A strict majority has one
    among the first ``len(values) // 2 + 1`` entries, so only those are
    candidates; at most one value holds it, so no order needs fixing.
    """
    half = len(values) // 2
    for value in values[: half + 1]:
        if values.count(value) > half:
            return value
    return default


def _accepted_entries(
    payload: Payload, round_: Round, sender: ProcessId, n: int
) -> dict[Label, Payload]:
    """Well-formed entries of ``payload``; Byzantine garbage is ignored.

    Malformed or missing entries simply leave tree slots unset; the
    resolver treats unset slots as ``default``, which is the standard
    EIG handling of silent or garbled informants.  Within the payload
    the first entry for a label wins.
    """
    accepted: dict[Label, Payload] = {}
    if not isinstance(payload, tuple):
        return accepted
    for entry in payload:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            continue
        label, value = entry
        if not isinstance(label, tuple):
            continue
        if len(label) != round_ - 1:
            continue
        if any(
            not isinstance(element, int) or not 0 <= element < n
            for element in label
        ):
            continue
        if len(set(label)) != len(label):
            continue
        if sender in label:
            continue
        accepted.setdefault(label + (sender,), value)
    return accepted


def eig_consensus_spec(
    n: int, t: int, default: Payload = 0
) -> ProtocolSpec:
    """Unauthenticated strong consensus via EIG (``n > 3t``)."""

    memo = RoundMemo()

    def factory(pid: ProcessId, proposal: Payload) -> EIGProcess:
        return EIGProcess(
            pid, n, t, proposal, default=default, mode="consensus",
            memo=memo,
        )

    return ProtocolSpec(
        name="eig-consensus",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=False,
    )


def eig_vector_spec(
    n: int, t: int, default: Payload = 0
) -> ProtocolSpec:
    """Unauthenticated interactive consistency via EIG (``n > 3t``)."""

    memo = RoundMemo()

    def factory(pid: ProcessId, proposal: Payload) -> EIGProcess:
        return EIGProcess(
            pid, n, t, proposal, default=default, mode="vector",
            memo=memo,
        )

    return ProtocolSpec(
        name="eig-vector",
        n=n,
        t=t,
        rounds=t + 1,
        factory=factory,
        authenticated=False,
    )
