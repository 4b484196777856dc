"""compare.py: labels and exit status on synthetic run sets."""

from __future__ import annotations

import json
import os

import compare

METRICS = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _report(latency: float, ops: float, error_rate: float = 0.0) -> dict:
    return {
        "workloads": {
            "w": {
                "error_rate": error_rate,
                "metrics": {"latency_p50_ms": latency, "ops_per_s": ops},
            }
        }
    }


def _labels(a, b):
    rows, regressed = compare.compare(a, b, METRICS)
    return {row[1]: row[-1] for row in rows}, regressed


def test_same_numbers_are_within_bound():
    runs = [_report(10.0, 100.0), _report(10.2, 101.0), _report(9.9, 99.0)]
    labels, regressed = _labels(runs, runs)
    assert labels == {"latency_p50_ms": "within bound", "ops_per_s": "within bound",
                      "error_rate": "within bound"}
    assert not regressed


def test_direction_decides_better_and_worse():
    a = [_report(10.0, 100.0), _report(10.1, 100.0), _report(9.9, 100.0)]
    b = [_report(12.0, 120.0), _report(12.1, 121.0), _report(11.9, 119.0)]
    labels, regressed = _labels(a, b)
    assert labels["latency_p50_ms"] == "worse"
    assert labels["ops_per_s"] == "better"
    assert regressed


def test_wide_spread_is_unresolved_unless_runs_separate():
    a = [_report(5.0, 100.0), _report(10.0, 100.0), _report(15.0, 100.0), _report(20.0, 100.0)]
    b = [_report(6.0, 100.0), _report(11.0, 100.0), _report(16.0, 100.0), _report(21.0, 100.0)]
    labels, _ = _labels(a, b)
    assert labels["latency_p50_ms"] == "unresolved"
    b = [_report(1.0, 100.0), _report(2.0, 100.0), _report(3.0, 100.0), _report(4.0, 100.0)]
    labels, _ = _labels(a, b)
    assert labels["latency_p50_ms"] == "better"


def test_a_rise_in_error_rate_fails():
    a = [_report(10.0, 100.0)]
    b = [_report(10.0, 100.0, error_rate=0.01)]
    labels, regressed = _labels(a, b)
    assert labels["error_rate"] == "worse" and regressed


def test_main_exits_1_on_a_regression_against_benchmark_json(tmp_path):
    with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as handle:
        names = [m["name"] for m in json.load(handle)["end_to_end"]]

    def write(name, scale, error_rate=0.0):
        path = tmp_path / name
        metrics = {metric: 10.0 * scale for metric in names}
        path.write_text(json.dumps(
            {"workloads": {"w": {"error_rate": error_rate, "metrics": metrics}}}
        ))
        return str(path)

    base = write("base.json", 1.0)
    assert compare.main([base, "--", write("same.json", 1.01)]) == 0
    assert compare.main([base, "--", write("errors.json", 1.0, error_rate=0.5)]) == 1
    # Every metric moves up by half: lower-is-better ones are worse.
    assert compare.main([base, "--", write("slower.json", 1.5)]) == 1
    assert compare.main([base]) == 2
