"""Per-layer self time, recorded from outside the program.

The traced benchmark run wraps the public entry points of each layer of
``repro`` — listed in :func:`layer_table` as ``(module, qualname)``
pairs — with a timing wrapper.  Nothing under ``src/`` changes: the
wrappers are installed by patching attributes at run time and removed
again by :meth:`Installation.remove`.

A layer's *self time* is the wall time spent inside its wrapped calls
minus the part covered by wrapped calls nested inside them (any layer,
the same one included), so the self times of all layers plus the time
spent outside every wrapped call add up to the traced wall time.

Two details make the patching complete:

* a function taken with ``from module import name`` lives on in the
  importing module's namespace; :meth:`Installation.patch_function`
  finds every ``repro.*`` module attribute that *is* the original object
  (an identity scan) and replaces each one;
* the job server runs jobs on a worker thread while its event loop
  keeps serving frames, so each thread keeps its own span stack and its
  own totals, merged by :meth:`SpanRecorder.totals`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Table = dict[str, tuple[tuple[str, str], ...]]

STATIC_LAYERS: Table = {
    "validity": (
        ("repro.validity.containment", "admissible_under_containment"),
        ("repro.validity.containment", "containment_set"),
    ),
    "solvability": (
        ("repro.solvability.theorem", "classify"),
        ("repro.solvability.strong_consensus", "sweep_boundary"),
    ),
    "sim.engine": (("repro.sim.engine", "RoundEngine.run"),),
    "sim.check": (
        ("repro.sim.engine", "IncrementalChecker.on_round"),
        ("repro.sim.engine", "IncrementalChecker.on_run_end"),
        ("repro.sim.execution", "check_execution"),
    ),
    "sim.kernel": (
        ("repro.sim.kernel", "run_kernel"),
        ("repro.sim.kernel", "fork_kernel"),
        ("repro.sim.kernel", "PrefixForker.machines_at"),
    ),
    "sim.materialize": (("repro.sim.kernel", "KernelTrace.to_execution"),),
    "certify.build": (
        ("repro.certify.format", "build_certificate"),
        ("repro.certify.format", "Certificate.to_bytes"),
    ),
    "certify.verify": (("repro.certify.verifier", "verify_certificate"),),
    "serialization": (("repro.sim.serialization", "canonical_json"),),
    "omission": (
        ("repro.omission.merge", "merge"),
        ("repro.omission.swap", "swap_omission_checked"),
    ),
    "lowerbound": (
        ("repro.lowerbound.driver", "attack_weak_consensus"),
        ("repro.lowerbound.driver", "LowerBoundDriver.attack"),
    ),
    "lowerbound.verify_witness": (
        ("repro.lowerbound.witnesses", "verify_witness"),
    ),
    "obs": (
        ("repro.obs.ledger", "RunLedger.emit"),
        ("repro.obs.tracer", "LedgerTracer.counter"),
        ("repro.obs.tracer", "RoundTraceObserver.on_round"),
    ),
    "worldlog.append": (("repro.worldlog.store", "WorldLog.append"),),
    "worldlog.read": (
        ("repro.worldlog.store", "read_records"),
        ("repro.worldlog.replay", "log_stats"),
    ),
    "parallel": (
        ("repro.parallel.scheduler", "SweepScheduler.run"),
        ("repro.parallel.jobs", "execute_job"),
    ),
    "service.codec": (
        ("repro.worldlog.codec", "encode_job_result"),
        ("repro.worldlog.codec", "decode_job"),
    ),
    "service.frame": (
        ("repro.service.protocol", "encode_frame"),
        ("repro.service.protocol", "decode_frame"),
    ),
}
"""Every layer but ``protocols``, whose entries are discovered."""

COUNTERS: dict[tuple[str, str], dict[str, Callable[[Any], int]]] = {
    ("repro.certify.format", "Certificate.to_bytes"): {"bytes": len},
    ("repro.lowerbound.driver", "LowerBoundDriver.attack"): {
        "rounds_simulated": lambda outcome: outcome.rounds_simulated,
        "rounds_baseline": lambda outcome: outcome.rounds_baseline,
    },
}
"""Counts read off an entry's return value and summed per layer: the
certificate bytes a run ships, and the engine rounds the driver ran
against the rounds a reuse-free pipeline would have run."""

PROTOCOL_PACKAGE = "repro.protocols"
PROTOCOL_METHODS = ("outgoing", "deliver")


def protocol_targets() -> tuple[tuple[str, str], ...]:
    """``(module, qualname)`` of every protocol state-machine step.

    Every :class:`~repro.sim.process.Process` subclass defined at module
    level in ``repro.protocols.*`` contributes the ``outgoing`` and
    ``deliver`` methods it defines itself (inherited ones are wrapped
    once, on the class that defines them).
    """
    from repro.sim.process import Process

    package = importlib.import_module(PROTOCOL_PACKAGE)
    targets = []
    for info in sorted(
        pkgutil.iter_modules(package.__path__), key=lambda i: i.name
    ):
        module_name = f"{PROTOCOL_PACKAGE}.{info.name}"
        module = importlib.import_module(module_name)
        for name, value in sorted(vars(module).items()):
            if (
                inspect.isclass(value)
                and issubclass(value, Process)
                and value.__module__ == module_name
            ):
                for method in PROTOCOL_METHODS:
                    if method in vars(value):
                        targets.append((module_name, f"{name}.{method}"))
    return tuple(targets)


def layer_table() -> Table:
    """Every layer name mapped to the ``(module, qualname)`` it wraps."""
    return {"protocols": protocol_targets(), **STATIC_LAYERS}


@dataclass
class _Totals:
    self_s: float = 0.0
    calls: int = 0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class _ThreadState:
    stack: list[list[float]] = field(default_factory=list)
    totals: dict[str, _Totals] = field(default_factory=dict)


class SpanRecorder:
    """Folds wrapped calls into per-layer self time, calls and counts.

    Args:
        clock: the monotonic time source (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(
        self,
        layer: str,
        fn: Callable,
        counters: dict[str, Callable[[Any], int]] | None = None,
    ) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        clock = self._clock
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            frame = [0.0]  # time covered by nested wrapped calls
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals = state.totals.get(layer)
                if totals is None:
                    totals = state.totals[layer] = _Totals()
                totals.self_s += elapsed - frame[0]
                totals.calls += 1
                if stack:
                    stack[-1][0] += elapsed
            if counters:
                for name, count in counters.items():
                    totals.counts[name] = (
                        totals.counts.get(name, 0) + count(result)
                    )
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s", "calls", <counters>…}}`` over all threads."""
        merged: dict[str, dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, totals in list(state.totals.items()):
                entry = merged.setdefault(layer, {"self_s": 0.0, "calls": 0})
                entry["self_s"] += totals.self_s
                entry["calls"] += totals.calls
                for name, value in totals.counts.items():
                    entry[name] = entry.get(name, 0) + value
        return merged

    def reset(self) -> None:
        """Forget every total (span stacks in flight are kept)."""
        with self._lock:
            for state in self._states:
                state.totals.clear()


class Installation:
    """The patches one :func:`install` made, so they can be undone."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch_method(
        self, layer: str, cls: type, name: str, counters=None
    ) -> None:
        """Wrap the method ``cls.name`` (a plain function)."""
        original = vars(cls)[name]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__qualname__}.{name} is not a function")
        self._set(cls, name, self.recorder.wrap(layer, original, counters))

    def patch_function(
        self, layer: str, module: Any, name: str, counters=None
    ) -> None:
        """Wrap ``module.name`` and every ``repro`` alias of it."""
        original = getattr(module, name)
        if not inspect.isfunction(original):
            raise TypeError(f"{module.__name__}.{name} is not a function")
        wrapper = self.recorder.wrap(layer, original, counters)
        for other in _repro_modules():
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._set(other, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first.

        Modules imported while tracing was on copied wrappers with
        ``from … import``; those aliases are restored too.
        """
        wrappers: dict[int, tuple[Any, Any]] = {}
        while self._patches:
            owner, name, original = self._patches.pop()
            wrapper = vars(owner)[name]
            wrappers[id(wrapper)] = (wrapper, original)
            setattr(owner, name, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)][1])


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def install(recorder: SpanRecorder, table: Table | None = None) -> Installation:
    """Wrap every entry of ``table`` (default :func:`layer_table`).

    Every module the table names is imported first, so the identity
    scan sees each ``from … import`` alias that exists when tracing
    starts; modules imported later resolve the name through the
    already-patched defining module.
    """
    table = layer_table() if table is None else table
    for targets in table.values():
        for module_name, _ in targets:
            importlib.import_module(module_name)
    installation = Installation(recorder)
    for layer, targets in table.items():
        for module_name, qualname in targets:
            module = sys.modules[module_name]
            counters = COUNTERS.get((module_name, qualname))
            if "." in qualname:
                class_name, method = qualname.split(".")
                installation.patch_method(
                    layer, getattr(module, class_name), method, counters
                )
            else:
                installation.patch_function(layer, module, qualname, counters)
    return installation
