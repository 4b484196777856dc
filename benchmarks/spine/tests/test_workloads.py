"""Every workload at smoke scale, the verdict checks, and the driver contract."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

import expected
import loadgen
import run as spine
import workloads

SMOKE_SECONDS = 0.5

#: Self-time shares of the engine's layers (the in-process workloads' spans).
ENGINE_SHARES = (
    "topology.substrate_frac",
    "models.restrict_frac",
    "kernel.compile_frac",
    "kernel.search_frac",
    "solvability.validate_frac",
    "solvability.self_frac",
)


@pytest.fixture
def work(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    return str(path)


@pytest.mark.parametrize("workload", spine.WORKLOADS)
def test_every_workload_runs_traced_at_smoke_scale(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(spine, "WORK", str(tmp_path / "spine-work"))
    result = spine.measure(workload, seed=0, seconds=SMOKE_SECONDS, trace=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(spine.LAYER_UNITS)
    layers = result["metrics"]
    assert 0.0 <= layers["unattributed_frac"] <= 1.0
    assert result["table"].startswith(f"== {workload}")
    trace_dir = tmp_path / "spine-work" / "traces" / f"{workload}-s0"
    assert (trace_dir / "spans.jsonl.gz").stat().st_size > 0
    assert (trace_dir / "layers.txt").read_text().strip() == result["table"]
    dominant = {"solve_search": "kernel.search_frac", "model_b3": "models.restrict_frac"}
    if workload in dominant:
        shares = {name: layers[name] for name in ENGINE_SHARES}
        assert max(shares, key=shares.get) == dominant[workload]
        assert layers["unattributed_frac"] <= 0.15
    if workload == "svc_hot":
        assert layers["service.hit_frac"] >= 0.99
    if workload == "svc_miss":
        assert layers["service.hit_frac"] == 0.0
        assert layers["kernel.nodes"] > 0


def test_driver_form_prints_every_end_to_end_metric_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(spine.HERE, "run.py"), "--workload", "svc_hot",
         "--seed", "3", "--seconds", str(SMOKE_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spine.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(spine.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert bench["command"] == ["python3", "benchmarks/spine/run.py"]
    assert bench["run_seconds"] == spine.RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(spine.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spine.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spine.LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_a_doctored_verdict_table_fails_the_run(monkeypatch, work, capsys):
    doctored = dict(expected.SOLVE_CASES)
    key = next(k for k, v in doctored.items() if v[0] == "solvable")
    doctored[key] = ("unsolvable-up-to-bound", None)
    monkeypatch.setattr(expected, "SOLVE_CASES", doctored)
    assert workloads.main(["solve_search", "--seed", "0", "--seconds", "0",
                           "--work", work, "--setup-only"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_an_incorrect_child_makes_the_driver_exit_nonzero(monkeypatch, capsys):
    def fake_child(workload, seed, seconds, **kwargs):
        return {"setup_s": 1.0, "attempted": 4, "failed": 1, "correct": False,
                "problems": ["doctored"], "table": "", "reference_s": 0.004,
                "metrics": {name: 1.0 for name in spine.E2E_UNITS}}

    monkeypatch.setattr(spine, "run_child", fake_child)
    code = spine.main(["--workload", "solve_search", "--seed", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == 3


def test_svc_miss_never_hits_the_verdict_lru(work):
    load = workloads.ServiceLoad(random.Random(7), miss=True)
    run = workloads.Run()
    server = workloads.start_service(load, work, "t", None, run)
    try:
        before = server.request({"op": "stats"})["stats"]
        result = loadgen.closed_loop(
            server, load.next_query, connections=workloads.NPROC, seconds=1.0
        )
        after = server.request({"op": "stats"})["stats"]
    finally:
        server.stop()
    assert run.failed == 0
    assert result.ok > 0 and result.failed == 0
    assert result.hits == 0
    assert after["hits"] == before["hits"]
    assert after["misses"] - before["misses"] == result.ok


def test_percentile_takes_a_0_to_100_rank():
    samples = [float(i) for i in range(1, 101)]
    assert workloads.percentile(samples, 50) == 50.0
    assert workloads.percentile(samples, 99) == 99.0
    assert workloads.percentile([3.0], 99) == 3.0
    assert workloads.percentile([], 50) == 0.0


def test_a_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    spine_copy = tmp_path / "benchmarks" / "spine"
    spine_copy.mkdir(parents=True)
    for name in os.listdir(spine.HERE):
        if name.endswith(".py"):
            (spine_copy / name).write_bytes(open(os.path.join(spine.HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "svc_hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
