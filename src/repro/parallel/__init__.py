"""Parallel sweep execution: multi-core fan-out of attack matrices.

The subsystem has two modules:

* :mod:`repro.parallel.jobs` — picklable job descriptions
  (:class:`AttackJob`, :class:`MeasureJob`) that rebuild protocol specs
  from registry names inside each worker;
* :mod:`repro.parallel.scheduler` — :class:`SweepScheduler`, which
  shards a job matrix over a process pool (or a bit-identical serial
  fallback), gathers results in deterministic cell order and merges
  per-worker cache accounting into a :class:`SweepReport`.

The package's symbols are loaded lazily (PEP 562), so importing one
submodule (a worker's :mod:`repro.parallel.jobs`) does not import the
scheduler and the lower-bound driver behind it.  Wall-clock timing of
attacks lives in :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

_LAZY = {
    "AttackJob": "repro.parallel.jobs",
    "CacheStats": "repro.parallel.jobs",
    "ClassifyJob": "repro.parallel.jobs",
    "ClassifyVerdict": "repro.parallel.jobs",
    "JobResult": "repro.parallel.jobs",
    "MeasureJob": "repro.parallel.jobs",
    "SweepJob": "repro.parallel.jobs",
    "UnknownBuilderError": "repro.parallel.jobs",
    "execute_job": "repro.parallel.jobs",
    "registered_builders": "repro.parallel.jobs",
    "registered_problems": "repro.parallel.jobs",
    "resolve_builder": "repro.parallel.jobs",
    "resolve_problem": "repro.parallel.jobs",
    "CellError": "repro.parallel.scheduler",
    "SweepCell": "repro.parallel.scheduler",
    "SweepReport": "repro.parallel.scheduler",
    "SweepScheduler": "repro.parallel.scheduler",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
