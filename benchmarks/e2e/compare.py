"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python benchmarks/e2e/compare.py --a A1.json A2.json ... \\
        --b B1.json B2.json ...

Each file is a document written by ``run.py --out``; side A is the
parent (or the first set of runs), side B the change.  For every
``(metric, workload)`` pair found on both sides the script prints each
side's median and quartiles and a verdict against the metric's
``bound`` in ``BENCHMARK.json`` (a share of A's median):

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — B's median is worse by more than the bound;
* ``better`` — B's median is better by more than the bound;
* ``unresolved`` — the spread of either side (interquartile range over
  median) is wider than the bound, so the medians cannot be told
  apart; it stays ``better`` only when every B run beats every A run;
* ``-`` — the metric has no bound (per-layer metrics, and end-to-end
  metrics ``BENCHMARK.json`` does not list).

Exit status: 1 when any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``{(metric, workload): [value per run]}`` over ``paths``."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, entry in document["workloads"].items():
            for metric, measured in entry["metrics"].items():
                values.setdefault((metric, workload), []).append(
                    measured["value"]
                )
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], spec: dict | None) -> str:
    if spec is None:
        return "-"
    lower = spec["better"] == "lower"
    median_a = statistics.median(a)
    worse_by = (statistics.median(b) - median_a) / abs(median_a)
    if not lower:
        worse_by = -worse_by
    if max(spread(a), spread(b)) > spec["bound"]:
        every_run_better = max(b) < min(a) if lower else min(b) > max(a)
        return "better" if every_run_better else "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "better"
    return "ok"


def compare(a_paths: list[str], b_paths: list[str]) -> tuple[list[str], bool]:
    """The report lines, and whether any pair got worse."""
    specs = {
        metric["name"]: metric
        for metric in json.loads(BENCHMARK.read_text())["end_to_end"]
    }
    a, b = load(a_paths), load(b_paths)
    lines = [
        f"{'metric':<32} {'workload':<15} {'A q1/median/q3':>32} "
        f"{'B q1/median/q3':>32} {'bound':>6}  verdict"
    ]
    regressed = False
    for key in sorted(set(a) & set(b)):
        metric, workload = key
        spec = specs.get(metric)
        result = verdict(a[key], b[key], spec)
        regressed |= result == "worse"
        sides = [
            "/".join(f"{value:.4g}" for value in quartiles(values))
            for values in (a[key], b[key])
        ]
        bound = f"{spec['bound']:.0%}" if spec else "-"
        lines.append(
            f"{metric:<32} {workload:<15} {sides[0]:>32} {sides[1]:>32} "
            f"{bound:>6}  {result}"
        )
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of run.py --out documents.")
    parser.add_argument("--a", nargs="+", required=True,
                        help="the parent's runs")
    parser.add_argument("--b", nargs="+", required=True,
                        help="the change's runs")
    args = parser.parse_args(argv)
    lines, regressed = compare(args.a, args.b)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
