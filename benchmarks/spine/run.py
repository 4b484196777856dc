#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end metrics, layer tracing.

One workload (the form ``BENCHMARK.json`` names; the last stdout line is
the JSON result):

    python3 benchmarks/spine/run.py --workload svc_hot --seed 0 --seconds 15 --trace 0

Every workload, written to a file that ``compare.py`` reads:

    python3 benchmarks/spine/run.py --seed 0 --out run-seed0.json [--trace]

Each run starts the workload ``SETUPS`` times in a fresh process on a
fresh private ``REPRO_SDS_CACHE_DIR``: every start times a cold set-up,
and the last one goes on to measure for ``--seconds``.  ``setup_s`` is the
median of the set-ups.  Times are scaled to a reference machine speed
(``speed.py``).  ``--trace`` instead measures once untraced and once with
the layer wrappers installed, and reports the per-layer metrics and their
table (README.md explains every metric).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import loadgen
import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")

RUN_SECONDS = 15
SETUPS = 3
#: A run's whole budget, set-ups included; the contract allows 180 s.
RUN_BUDGET_S = 170.0

#: End-to-end metrics: name -> unit.  Operations are queries on the service
#: workloads and whole passes (the four solves, or the model solve) on the
#: in-process ones.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  ``frac`` metrics are self-time shares
#: of the traced window's wall time; ``count/op`` metrics are per operation.
#: The latencies (from the untraced window) sit here because they do not
#: repeat within the end-to-end bounds at this run length.
LAYER_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "service.codec_frac": "frac",
    "service.validate_frac": "frac",
    "service.query_key_frac": "frac",
    "service.transport_frac": "frac",
    "service.hit_frac": "frac",
    "service.queue_depth_peak": "count",
    "service.probe_frac": "frac",
    "service.worker.probe_frac": "frac",
    "service.worker.dispatch_frac": "frac",
    "service.worker.warm_frac": "frac",
    "topology.substrate_frac": "frac",
    "topology.substrate_calls": "count/op",
    "models.restrict_frac": "frac",
    "models.restrict_calls": "count/op",
    "kernel.compile_frac": "frac",
    "kernel.search_frac": "frac",
    "kernel.nodes": "count/op",
    "kernel.nodes_per_s": "1/s",
    "kernel.conflicts": "count/op",
    "kernel.backjumps": "count/op",
    "kernel.exhausted_frac": "frac",
    "solvability.validate_frac": "frac",
    "solvability.self_frac": "frac",
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _pgid_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = loadgen.proc_stat(entry)
            if fields is not None and fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def _end_group(pgid: int) -> None:
    """Kill whatever a child left in its process group and wait for it to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while _pgid_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    *,
    deadline: float,
    index: int,
    setup_only: bool = False,
    trace_dir: str | None = None,
) -> dict:
    """One workload process on a fresh work directory; returns its JSON."""
    work = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}-{index}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--work", work,
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", trace_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_SDS_CACHE_DIR"] = os.path.join(work, "cache")
    # Same hash seed in every process, so runs differ in timing, not layout.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _end_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} overran the {RUN_BUDGET_S:.0f}s run budget")
    finally:
        _end_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``: what the driver's JSON line reports."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        trace_dir = os.path.join(WORK, "traces", f"{workload}-s{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        child = run_child(
            workload, seed, seconds, deadline=deadline, index=0, trace_dir=trace_dir
        )
        with open(os.path.join(trace_dir, "layers.txt"), "w") as handle:
            handle.write(child["table"] + "\n")
        children = [child]
        metrics = {name: child["layers"][name] for name in LAYER_UNITS}
    else:
        children = [
            run_child(
                workload,
                seed,
                seconds,
                deadline=deadline,
                index=index,
                setup_only=index < SETUPS - 1,
            )
            for index in range(SETUPS)
        ]
        metrics = dict(children[-1]["metrics"])
        metrics["setup_s"] = statistics.median(c["setup_s"] for c in children)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return {
        "workload": workload,
        "correct": all(c["correct"] for c in children),
        "problems": [p for c in children for p in c["problems"]],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "reference_s": children[-1]["reference_s"],
        "table": children[-1]["table"],
    }


def checkout_problem() -> str | None:
    """Why this directory cannot run the benchmark, if it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no repro package under {os.path.join(ROOT, 'src')}"
    return None


def print_result(result: dict, units: dict[str, str]) -> None:
    for line in result["problems"]:
        print(f"PROBLEM {result['workload']}: {line}", file=sys.stderr)
    if result["table"]:
        print(result["table"])
    if result["reference_s"]:
        print(
            f"{result['workload']:<14} reference loop {result['reference_s'] * 1e3:.3f} ms;"
            f" times are scaled to {speed.REFERENCE_S * 1e3:g} ms (speed.py)"
        )
    for name, unit in units.items():
        print(f"{result['workload']:<14} {name:<28} {result['metrics'][name]:>14.6g} {unit}")
    print(
        f"{result['workload']:<14} {'error_rate':<28} {result['error_rate']:>14.6g}"
        f"  ({result['failed']} of {result['attempted']})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="run just this one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", help="write every workload's result here (JSON)")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.out is None):
        parser.error("give --workload for one workload or --out for all of them")

    problem = checkout_problem()
    if problem is not None:
        print(f"run.py: {problem}", file=sys.stderr)
        return 2

    try:
        if args.workload is not None:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            units = LAYER_UNITS if args.trace else E2E_UNITS
            print_result(result, units)
            print(json.dumps({
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }))
            return 0 if result["correct"] else 1

        report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for workload in WORKLOADS:
            result = measure(workload, args.seed, args.seconds, False)
            print_result(result, E2E_UNITS)
            if args.trace:
                traced = measure(workload, args.seed, args.seconds, True)
                print_result(traced, LAYER_UNITS)
                result["layers"] = traced["metrics"]
                result["table"] = traced["table"]
                result["correct"] = result["correct"] and traced["correct"]
            report["workloads"][workload] = result
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return 0 if all(r["correct"] for r in report["workloads"].values()) else 1
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
