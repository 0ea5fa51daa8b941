"""Input configurations (§4.1).

A *process-proposal pair* ``(p_i, v)`` assigns proposal ``v`` to process
``p_i``; an *input configuration* is a set of such pairs for between
``n - t`` and ``n`` distinct processes — an assignment of proposals to all
correct processes.  ``I`` denotes the set of all input configurations and
``I_n`` those with exactly ``n`` pairs.

:class:`InputConfig` is immutable and hashable so configurations can be
used as dictionary keys (the Γ function of the containment condition is a
mapping ``I → V_O``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.types import Payload, ProcessId, validate_system_size


@dataclass(frozen=True)
class InputConfig:
    """An input configuration ``c ∈ I`` (§4.1).

    Attributes:
        n: total number of processes in the system.
        t: the corruption budget (configurations omit at most ``t``
            processes).
        pairs: the process-proposal pairs, sorted by process id.
    """

    n: int
    t: int
    pairs: tuple[tuple[ProcessId, Payload], ...]

    def __post_init__(self) -> None:
        validate_system_size(self.n, self.t)
        pids = [pid for pid, _ in self.pairs]
        if pids != sorted(set(pids)):
            raise ValueError(
                "pairs must be sorted by process id without duplicates"
            )
        if pids and not 0 <= pids[0] <= pids[-1] < self.n:
            raise ValueError(f"process ids outside range({self.n})")
        if not self.n - self.t <= len(self.pairs) <= self.n:
            raise ValueError(
                f"a configuration names between n-t={self.n - self.t} "
                f"and n={self.n} processes, got {len(self.pairs)}"
            )

    @classmethod
    def from_mapping(
        cls, n: int, t: int, proposals: Mapping[ProcessId, Payload]
    ) -> "InputConfig":
        """Build a configuration from a ``pid -> proposal`` mapping."""
        return cls(n=n, t=t, pairs=tuple(sorted(proposals.items())))

    @classmethod
    def full(
        cls, n: int, t: int, proposals: Sequence[Payload]
    ) -> "InputConfig":
        """A configuration in ``I_n``: all processes correct."""
        if len(proposals) != n:
            raise ValueError(
                f"full configuration needs {n} proposals, "
                f"got {len(proposals)}"
            )
        return cls(
            n=n, t=t, pairs=tuple(enumerate(proposals))
        )

    @property
    def correct(self) -> frozenset[ProcessId]:
        """``π(c)``: processes the configuration declares correct."""
        return frozenset(pid for pid, _ in self.pairs)

    @property
    def is_full(self) -> bool:
        """Whether ``c ∈ I_n`` (every process is correct)."""
        return len(self.pairs) == self.n

    def proposal(self, pid: ProcessId) -> Payload | None:
        """``proposal(c[i])``, or ``None`` (the paper's ``⊥``) if absent."""
        for candidate, value in self.pairs:
            if candidate == pid:
                return value
        return None

    def as_mapping(self) -> dict[ProcessId, Payload]:
        """The configuration as a plain ``pid -> proposal`` dict."""
        return dict(self.pairs)

    def proposals_multiset(self) -> list[Payload]:
        """The proposals, with multiplicity (for counting arguments)."""
        return [value for _, value in self.pairs]

    def contains(self, other: "InputConfig") -> bool:
        """The containment relation ``self ⊇ other`` (§4.2).

        ``c1 ⊇ c2`` iff every process of ``c2`` appears in ``c1`` with the
        same proposal.
        """
        if (self.n, self.t) != (other.n, other.t):
            return False
        mine = self.as_mapping()
        return all(
            pid in mine and mine[pid] == value
            for pid, value in other.pairs
        )

    def restricted_to(
        self, processes: Iterable[ProcessId]
    ) -> "InputConfig":
        """The sub-configuration on ``processes`` (must stay within I)."""
        keep = frozenset(processes)
        return InputConfig(
            n=self.n,
            t=self.t,
            pairs=tuple(
                (pid, value) for pid, value in self.pairs if pid in keep
            ),
        )

    def containment_set(self) -> Iterator["InputConfig"]:
        """``Cnt(c)``: every configuration this one contains (§4.2).

        Generated directly (all large-enough subsets of ``π(c)``) rather
        than by filtering ``I`` — the set ``I`` is exponentially larger.
        Includes ``c`` itself (the relation is reflexive).
        """
        pids = [pid for pid, _ in self.pairs]
        smallest = self.n - self.t
        for size in range(smallest, len(pids) + 1):
            for subset in itertools.combinations(pids, size):
                yield self.restricted_to(subset)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"p{pid}:{value!r}" for pid, value in self.pairs
        )
        return f"InputConfig(n={self.n}, t={self.t}, [{inner}])"


def enumerate_input_configs(
    n: int, t: int, values: Sequence[Payload]
) -> Iterator[InputConfig]:
    """Enumerate all of ``I`` for a finite proposal domain.

    The count is ``Σ_{s=n-t}^{n} C(n, s)·|V|^s`` — exponential; intended
    for the small instances the solvability decision procedure analyses.
    """
    validate_system_size(n, t)
    if not values:
        raise ValueError("the proposal domain must be non-empty")
    for size in range(n - t, n + 1):
        for subset in itertools.combinations(range(n), size):
            for assignment in itertools.product(values, repeat=size):
                yield InputConfig(
                    n=n, t=t, pairs=tuple(zip(subset, assignment))
                )


def enumerate_multiset_configs(
    n: int, t: int, values: Sequence[Payload]
) -> Iterator[InputConfig]:
    """One configuration of ``I`` per proposal multiset, by ascending size.

    Each is the multiset's proposals in ``values`` order on pids
    ``0..s-1``.  The count is ``Σ_{s=n-t}^{n} C(s+|V|-1, s)`` — for binary
    values ``Σ (s+1)``, O(n·t).
    """
    validate_system_size(n, t)
    if not values:
        raise ValueError("the proposal domain must be non-empty")
    for size in range(n - t, n + 1):
        for multiset in itertools.combinations_with_replacement(
            values, size
        ):
            yield InputConfig(n=n, t=t, pairs=tuple(enumerate(multiset)))


def enumerate_full_configs(
    n: int, t: int, values: Sequence[Payload]
) -> Iterator[InputConfig]:
    """Enumerate ``I_n`` (all-correct configurations) for a finite domain."""
    for assignment in itertools.product(values, repeat=n):
        yield InputConfig.full(n, t, list(assignment))
