#!/usr/bin/env python3
"""Run one sharded (or in-RAM) SDS^b build/probe under a hard address-space cap.

The out-of-core claim — "the sharded pipeline completes where the in-RAM
path cannot" — is only honest if the memory ceiling is enforced by the
operating system, not by reading a gauge after the fact.  This script is the
subprocess the benchmark (and the ``bench-oom-smoke`` CI target) launches:
it installs an ``RLIMIT_AS`` cap *before* importing anything heavy, runs one
mode, and prints a single JSON line with wall time, verdict and the peak RSS
the kernel actually charged (``ru_maxrss``).

Exit codes: 0 success, 3 the cap killed the attempt (``MemoryError`` — the
expected outcome for the in-RAM path under the pipeline cap), anything else
a real failure.

    python benchmarks/capped_probe.py --mode pipeline --n 3 --b 3 \
        --cap-mb 1200 --backend numpy

``--mode solve`` runs a registry task through ``solve_task`` — the path
``repro zoo``, the service workers and ``repro conform`` take:

    python benchmarks/capped_probe.py --mode solve --task set_consensus \
        --task-args 4 3 --min-rounds 3 --b 3 --model "t_resilient(1)" --cap-mb 150
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_mb() -> int:
    """This process's own peak resident set, in MB.

    ``ru_maxrss`` survives ``execve`` on Linux — a subprocess forked from a
    large parent (the benchmark driver after an in-process compile) reports
    the *parent's* high-water mark, not its own.  ``VmHWM`` is per-``mm``
    and reset on exec, so prefer it; ``ru_maxrss`` is the portable fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) // 1024  # kB -> MB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=("build", "pipeline", "pipeline-inram", "solve"),
        required=True,
        help="build: sharded SDS^b only; pipeline: sharded build + packed "
        "compile + one solvability probe; pipeline-inram: the PR5 in-RAM "
        "equivalent (full identity object-graph subdivision + kernel probe); "
        "solve: solve_task on a registry task (--task, --task-args)",
    )
    parser.add_argument("--n", type=int, default=3, help="dimension (processes - 1)")
    parser.add_argument(
        "--b", type=int, default=3, help="subdivision rounds (solve: max rounds)"
    )
    parser.add_argument("--task", default=None, help="solve: registry task name")
    parser.add_argument(
        "--task-args", type=int, nargs="*", default=(), help="solve: task arguments"
    )
    parser.add_argument("--min-rounds", type=int, default=0, help="solve: first level")
    parser.add_argument("--shard-size", type=int, default=65536)
    parser.add_argument("--cap-mb", type=int, default=0, help="RLIMIT_AS cap; 0 = none")
    parser.add_argument("--backend", choices=("int", "numpy", "auto"), default="int")
    parser.add_argument("--node-budget", type=int, default=2_000_000)
    parser.add_argument("--cache-dir", default=None, help="REPRO_SDS_CACHE_DIR override")
    parser.add_argument(
        "--model",
        default=None,
        help="restrict build/probe to a sub-IIS model (zoo spec, e.g. "
        "'t_resilient(1)'); the shard set is built orbit-pruned, never "
        "full-then-filtered",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="pipeline mode: fan the per-shard face census across N processes",
    )
    args = parser.parse_args()
    if args.mode == "solve" and args.task is None:
        parser.error("--mode solve requires --task")
    if args.mode == "pipeline-inram" and args.model:
        parser.error("--mode pipeline-inram is the identity route; it takes no --model")

    if args.cap_mb:
        # RLIMIT_AS, not RLIMIT_RSS: Linux does not enforce the latter.  The
        # cap applies to this process only; allocations past it raise
        # MemoryError, which is exactly the signal being benchmarked.
        cap = args.cap_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import os

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if args.cache_dir is not None:
        os.environ["REPRO_SDS_CACHE_DIR"] = args.cache_dir

    result: dict = {
        "mode": args.mode,
        "n": args.n,
        "b": args.b,
        "cap_mb": args.cap_mb,
        "backend": args.backend,
    }
    started = time.perf_counter()
    try:
        base_colors = tuple(range(args.n + 1))
        base_tops = (base_colors,)
        model = None
        if args.model:
            from repro.models.zoo import parse_model

            model = parse_model(args.model)
            result["model"] = model.fingerprint
        if args.mode == "build":
            from repro.topology.shards import build_sds_sharded

            sharded = build_sds_sharded(
                base_colors, base_tops, args.b, shard_size=args.shard_size,
                model=model,
            )
            result["tops"] = sharded.top_count
            result["vertices"] = sharded.vertex_count
            result["shards"] = sharded.shard_count
        elif args.mode == "pipeline":
            from repro.core.solvability import SearchOptions, probe_level_sharded
            from repro.tasks import identity_task

            task = identity_task(args.n + 1, values=(0,))
            mapping, report, extras = probe_level_sharded(
                task,
                args.b,
                node_budget=args.node_budget,
                options=SearchOptions(mask_backend=args.backend),
                shard_size=args.shard_size,
                model=model,
                max_workers=args.max_workers,
            )
            result["satisfiable"] = mapping is not None
            result["nodes"] = report.nodes_explored
            result["vertices"] = report.vertices
            result["backend_used"] = extras["backend"]
            result["shards"] = extras["shards"]
            result["census_workers"] = extras["census_workers"]
            result["dropped_faces"] = extras["collapse"].dropped_faces
        elif args.mode == "solve":
            from repro.core.solvability import solve_task
            from repro.service.registry import resolve_task

            task = resolve_task(args.task, tuple(args.task_args))
            solved = solve_task(
                task,
                args.b,
                min_rounds=args.min_rounds,
                node_budget=args.node_budget,
                model=model,
            )
            result["task"] = task.name
            result["verdict"] = solved.status.value
            result["rounds"] = solved.rounds
            result["nodes"] = sum(level.nodes_explored for level in solved.levels)
        else:  # pipeline-inram
            from repro.core.solvability import SearchOptions, _probe_level
            from repro.tasks import identity_task

            task = identity_task(args.n + 1, values=(0,))
            mapping, report, _sub = _probe_level(
                task, args.b, args.node_budget, SearchOptions()
            )
            result["satisfiable"] = mapping is not None
            result["nodes"] = report.nodes_explored
            result["vertices"] = report.vertices
    except MemoryError:
        # Report only after the handler: while it runs, the traceback keeps
        # the failed frames and everything they allocated alive, so even
        # reading /proc could hit the cap again.
        oom = True
    else:
        oom = False
    result["seconds"] = round(time.perf_counter() - started, 3)
    result["outcome"] = "oom" if oom else "ok"
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 3 if oom else 0


if __name__ == "__main__":
    sys.exit(main())
