"""Shared type aliases and small helpers used across the library.

The paper's model (§2 and Appendix A.1) works with a static system
``Pi = {p_1, ..., p_n}`` of deterministic state machines advancing in
synchronous rounds.  Processes are identified here by integers ``0..n-1``
(the paper uses 1-based indices; zero-based is idiomatic Python and the
translation is mechanical).  Rounds are 1-based as in the paper.
"""

from __future__ import annotations

from typing import Hashable

ProcessId = int
"""Identifier of a process, in ``range(n)``."""

Round = int
"""A synchronous round number, starting at 1 as in the paper."""

Bit = int
"""A binary value, 0 or 1 (weak consensus operates on bits)."""

Payload = Hashable
"""Message payloads must be hashable so messages compare by value."""

def validate_system_size(n: int, t: int) -> None:
    """Check the basic system constraints ``n >= 1`` and ``0 <= t < n``.

    Raises:
        ValueError: if the pair ``(n, t)`` is not a legal system size.
    """
    if n < 1:
        raise ValueError(f"need at least one process, got n={n}")
    if not 0 <= t < n:
        raise ValueError(f"need 0 <= t < n, got n={n}, t={t}")


def validate_process_id(pid: ProcessId, n: int) -> None:
    """Check that ``pid`` identifies a process in a system of ``n`` processes."""
    if not 0 <= pid < n:
        raise ValueError(f"process id {pid} outside range(0, {n})")
