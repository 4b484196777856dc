#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, against the bounds.

    python3 benchmarks/spine/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is one ``run.py --out`` report.  For every (workload, end-to-end
metric) the table shows each side's median and quartiles and labels the
change from A to B:

* ``better`` / ``worse`` — the medians differ by more than the metric's
  bound from ``BENCHMARK.json``, in the metric's good or bad direction;
* ``within bound`` — they differ by no more than the bound;
* ``unresolved`` — a side's quartile spread is wider than the bound, so
  the runs cannot tell, unless every B run reads better (or worse) than
  every A run.

Exits 1 on any ``worse`` metric or any rise in ``error_rate``, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The label for A -> B and the median change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better", worse_by
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within bound", worse_by


def load(paths: list[str]) -> list[dict]:
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    return reports


def values(reports: list[dict], workload: str, metric: str) -> list[float]:
    found = []
    for report in reports:
        entry = report["workloads"].get(workload)
        if entry is None:
            continue
        found.append(entry["error_rate"] if metric == "error_rate" else entry["metrics"][metric])
    return found


def compare(a: list[dict], b: list[dict], metrics: list[dict]) -> tuple[list[tuple], bool]:
    """Rows of the comparison table, and whether B regressed."""
    workloads = [w for w in a[0]["workloads"] if all(w in r["workloads"] for r in a + b)]
    rows, regressed = [], False
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            va, vb = values(a, workload, name), values(b, workload, name)
            label, worse_by = verdict(va, vb, metric["better"], metric["bound"])
            regressed |= label == "worse"
            rows.append((workload, name, quartiles(va), quartiles(vb), worse_by, metric["bound"], label))
        ea, eb = values(a, workload, "error_rate"), values(b, workload, "error_rate")
        rose = max(eb) > max(ea)
        regressed |= rose
        rows.append((workload, "error_rate", quartiles(ea), quartiles(eb), None, 0.0,
                     "worse" if rose else "within bound"))
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    side_a, side_b = argv[:split], argv[split + 1:]
    if not side_a or not side_b:
        print("compare.py: need at least one report on each side of --", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    rows, regressed = compare(load(side_a), load(side_b), metrics)

    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"A: {len(side_a)} run(s)   B: {len(side_b)} run(s)   medians [q1, q3]")
    print(f"{'workload':<14} {'metric':<16} {'A':>32} {'B':>32} {'change':>8} {'bound':>6}  verdict")
    for workload, name, qa, qb, worse_by, bound, label in rows:
        change = "" if worse_by is None else f"{worse_by:+.1%}"
        print(f"{workload:<14} {name:<16} {cell(qa):>32} {cell(qb):>32} {change:>8} {bound:>6.2f}  {label}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
