"""Measurement, fitting and reporting harness for the experiments.

* :mod:`repro.analysis.complexity` — (n, t) sweeps of worst-case message
  counts across fault-free and adversarial scenarios.
* :mod:`repro.analysis.fitting` — power-law exponent fits (the Ω(t²) /
  o(t²) shape checks).
* :mod:`repro.analysis.tables` — monospace table rendering.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        ".complexity": (
            "SweepPoint", "default_scenarios", "exhaustive_isolation_scan",
            "measure_point", "mixed_workload", "quadratic_parameter_grid",
            "sweep", "uniform_workloads",
        ),
        ".fitting": (
            "PowerLawFit", "fit_power_law", "fit_sweep", "is_superquadratic",
        ),
        ".spacetime": ("render_divergence", "render_spacetime"),
        ".tables": (
            "render_execution", "render_kv", "render_sweep", "render_table",
        ),
    },
)
