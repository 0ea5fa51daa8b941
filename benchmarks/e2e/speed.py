"""Machine-speed normalization of the benchmark's timings.

The benchmark runs on shared machines whose CPU speed drifts: on the
2-core box the baselines come from, a fixed pure-Python loop takes
anywhere from 0.8 to 1.8 ms depending on what else the host runs, the
level holding for tens of seconds.  That drift moves every wall time
the same way, so the benchmark times a fixed *reference loop* right
after each operation and divides: an operation's *normalized* time is

    wall time x REFERENCE_S / mean(reference times before, after)

that is, the time the operation would have taken on a core that runs
the reference loop in exactly ``REFERENCE_S`` seconds.  Over five
minutes in which the raw latency of one attack cell varied twofold,
the normalized latency of the same cell stayed within 3%.

The two cores of that box drift independently, so the benchmark pins
itself and its children to one CPU, and an operation that runs in a
child process for seconds also gets reference times taken while it
runs (:class:`Sampler`).
"""

from __future__ import annotations

import threading
import time

REFERENCE_S = 0.001
"""The nominal reference-loop time; about what an idle core of the
baseline machine takes."""

REFERENCE_ITERATIONS = 4600


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Interpreter work of a fixed mix: dict updates, tuples, sorting."""
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    total = 0
    for i in range(iterations):
        key = i % 101
        table[key] = table.get(key, 0) + i
        items.append((key, i))
        if len(items) > 64:
            items.sort()
            total += items[0][1]
            items = []
    return total + len(table)


def reference_s() -> float:
    """Wall seconds of one :func:`reference_loop`."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class SpeedProbe:
    """Reference timings between operations, and the factors they give.

    Create the probe just before the first operation; call
    :meth:`factor` right after each one.
    """

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def factor(self, during: list[float] = ()) -> float:
        """Normalized over wall time, for the operation just finished.

        ``during`` holds reference times taken while it ran (see
        :class:`Sampler`).
        """
        self.samples.append(reference_s())
        around = [self.samples[-2], *during, self.samples[-1]]
        return REFERENCE_S / (sum(around) / len(around))


class Sampler:
    """Times the reference loop every ``interval`` seconds, on a thread
    of its own, while an operation runs in a child process.

    A child on the same CPU can slow down and speed up within one
    operation; the samples follow it there.  Each takes the CPU from the
    child for ``REFERENCE_S`` every ``interval`` — about 1%.  Not for
    operations that run in this process: the thread would compete with
    them for the interpreter.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(reference_s())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
