"""Live sweep progress: the stderr status line and its heartbeat thread.

A multi-minute sweep (the E3 cheater matrix, a ``--jobs N`` fan-out) was
previously silent until the gather step returned; this module closes the
liveness gap.  :class:`SweepProgress` is the shared tracker the
:class:`~repro.parallel.scheduler.SweepScheduler` drives:

* the backends report cell lifecycle — :meth:`SweepProgress.start` when
  a cell is launched (serial) or submitted (process pool) and
  :meth:`SweepProgress.note_done` when it completes;
* a monitor thread (:class:`HeartbeatMonitor`) calls
  :meth:`SweepProgress.tick` on a fixed interval, refreshing the status
  line between completions;
* the status line — **stderr only**, stdout stays machine-readable —
  shows ``done/total`` cells, elapsed, an ETA extrapolated from the
  completed cells, and a ``STALLED`` flag once no cell has completed
  within the configured quiet period.

Nothing here reaches the run ledger: the scheduler writes each cell's
deterministic ``cell.start`` / ``cell.done`` pair at gather time, in
submission order, and the cell's time is its ``cell.wall_seconds``.

Everything here is stdlib-only and injectable: the tests drive a fake
clock and a string stream, never a real timer thread.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, TextIO


def _format_seconds(seconds: float) -> str:
    """Compact human duration (``41s``, ``3m20s``, ``1h02m``)."""
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class SweepProgress:
    """Thread-safe sweep liveness tracker with an stderr status line.

    Args:
        total: how many cells the sweep will run.
        stream: where status lines go (``None`` disables output).
            Status output belongs on **stderr**; passing stdout would
            break the CLI's stream-hygiene contract.
        stall_after: the quiet period (seconds): once no cell has
            completed for this long while cells remain, the line grows a
            ``STALLED`` flag naming the longest-running cell.
        clock: monotonic time source (injectable for tests).
        label: the line's prefix (e.g. ``"sweep"``, ``"e3"``).
    """

    def __init__(
        self,
        total: int,
        *,
        stream: TextIO | None = None,
        stall_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        label: str = "sweep",
    ) -> None:
        self.total = total
        self.stall_after = stall_after
        self.label = label
        self._stream = stream
        self._clock = clock
        self._lock = threading.Lock()
        self._started: dict[str, float] = {}
        self._done = 0
        self._begin = clock()
        self._last_done_at = self._begin
        self._line_open = False

    def start(self, label: str) -> None:
        """Record that ``label``'s cell is now in flight."""
        with self._lock:
            self._started[label] = self._clock()

    def note_done(self, label: str) -> None:
        """Record that ``label``'s cell completed.

        Safe to call from executor callback threads; refreshes the
        status line.
        """
        with self._lock:
            self._started.pop(label, None)
            self._done += 1
            self._last_done_at = self._clock()
            line = self._line()
        self._emit(line)

    def tick(self) -> None:
        """One heartbeat: refresh the line."""
        with self._lock:
            line = self._line()
        self._emit(line)

    def close(self) -> None:
        """Emit the final line and release the terminal."""
        with self._lock:
            line = self._line()
        self._emit(line, final=True)

    # -- rendering -----------------------------------------------------

    def _line(self) -> str:
        """The current status line (caller holds the lock)."""
        now = self._clock()
        parts = [
            f"{self.label}: {self._done}/{self.total} cells",
            f"elapsed {_format_seconds(now - self._begin)}",
        ]
        if self._done and self._done < self.total:
            eta = (now - self._begin) / self._done * (
                self.total - self._done
            )
            parts.append(f"eta {_format_seconds(eta)}")
        quiet = now - self._last_done_at
        if self._done < self.total and quiet > self.stall_after:
            slowest = min(
                self._started, key=self._started.get, default=None
            )
            flag = f"STALLED {_format_seconds(quiet)}"
            if slowest is not None:
                flag += f" (longest in flight: {slowest})"
            parts.append(flag)
        return ", ".join(parts)

    def _emit(self, line: str, final: bool = False) -> None:
        if self._stream is None:
            return
        interactive = getattr(self._stream, "isatty", lambda: False)()
        if interactive:
            # Erase the whole previous line (CSI 2K) instead of padding
            # it over: a fixed-width pad wraps on terminals narrower
            # than the pad and the wrapped fragment was never cleared,
            # leaving stale heartbeat text above the gather summary.
            self._stream.write(f"\r\x1b[2K{line}")
            if final:
                self._stream.write("\n")
        else:
            self._stream.write(line + "\n")
        self._stream.flush()


class HeartbeatMonitor:
    """A daemon thread calling :meth:`SweepProgress.tick` on an interval.

    Context-manager usage wraps a sweep::

        with HeartbeatMonitor(progress, interval=1.0):
            ...  # run cells

    The thread stops (and joins) on exit; a zero or negative interval
    disables the thread entirely, so the line is repainted only as
    cells complete.
    """

    def __init__(
        self, progress: SweepProgress, interval: float = 1.0
    ) -> None:
        self.progress = progress
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HeartbeatMonitor":
        if self.interval > 0:
            self._thread = threading.Thread(
                target=self._run,
                name="sweep-heartbeat",
                daemon=True,
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.progress.tick()


def default_progress_stream() -> TextIO:
    """Where sweep progress belongs: stderr, never stdout."""
    return sys.stderr
