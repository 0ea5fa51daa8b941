"""Synchronous round simulator and the Appendix-A execution formalism.

Public surface:

* :class:`~repro.sim.message.Message` — model messages.
* :class:`~repro.sim.state.StateSnapshot`, :class:`~repro.sim.state.Fragment`,
  :class:`~repro.sim.state.Behavior` — the observer's records (A.1.2–A.1.5).
* :class:`~repro.sim.execution.Execution` and
  :func:`~repro.sim.execution.check_execution` — executions and their
  validity conditions (A.1.6).
* :class:`~repro.sim.process.Process` — deterministic state machines.
* :class:`~repro.sim.adversary.Adversary` and friends — static adversaries.
* :class:`~repro.sim.engine.RoundEngine` and its
  :class:`~repro.sim.engine.RoundObserver`\\ s — the event-driven round
  loop and its pluggable per-round consumers.
* :func:`~repro.sim.simulator.run_execution` — the standard entry point
  (engine + trace recorder + incremental checker).
* :mod:`repro.sim.kernel` — the bitmask round kernel: the same
  semantics over per-round integer bitmasks for compiled omission
  adversaries, with :class:`~repro.sim.kernel.KernelOracle`
  cross-checking it against the object engine.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".adversary": (
            "AdaptiveOmissionAdversary", "Adversary", "ByzantineAdversary",
            "ChattiestTargetAdversary", "CrashAdversary", "NoFaults",
            "OmissionSchedule", "ScheduledOmissionAdversary",
            "SilenceAdversary", "compose_omissions",
        ),
        ".engine": (
            "EarlyStopPolicy", "IncrementalChecker", "RoundEngine",
            "RoundEvent", "RoundObserver", "TraceRecorder",
        ),
        ".execution": (
            "Execution", "ExecutionSummary", "check_execution",
            "check_transitions", "majority_decision",
        ),
        ".kernel": (
            "CompiledOmissions", "KernelOracle", "KernelTrace", "PrefixForker",
            "fork_kernel", "no_faults_compiled", "run_kernel",
        ),
        ".message": ("Message",),
        ".process": ("Process", "ProcessFactory", "drive_replay"),
        ".serialization": ("execution_from_dict", "execution_to_dict"),
        ".simulator": ("SimulationConfig", "run_execution"),
        ".state": (
            "Behavior", "Fragment", "StateSnapshot",
            "behaviors_indistinguishable", "check_behavior", "check_fragment",
        ),
    },
)
