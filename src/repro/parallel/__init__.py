"""Parallel sweep execution: multi-core fan-out of attack matrices.

The subsystem has two modules:

* :mod:`repro.parallel.jobs` — picklable job descriptions
  (:class:`AttackJob`, :class:`MeasureJob`, :class:`ClassifyJob`) that
  rebuild protocol specs from registry names inside each worker, and
  :func:`execute_job`, which runs, traces and times any of them;
* :mod:`repro.parallel.scheduler` — :class:`SweepScheduler`, whose one
  gather loop runs a job matrix inline or takes it from a process pool
  that ran it ahead, gathers results in deterministic cell order and
  merges per-worker cache accounting into a :class:`SweepReport`.

The package's symbols are loaded lazily (PEP 562), so importing one
submodule (a worker's :mod:`repro.parallel.jobs`) does not import the
scheduler and the lower-bound driver behind it.  Wall-clock timing of
attacks lives in :mod:`repro.obs.tracer`.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".jobs": (
            "AttackJob", "CacheStats", "ClassifyJob", "ClassifyVerdict",
            "JobResult", "MeasureJob", "SweepJob", "UnknownBuilderError",
            "execute_job", "resolve_builder", "resolve_problem",
        ),
        ".scheduler": (
            "CellError", "SweepCell", "SweepReport", "SweepScheduler",
        ),
    },
)
