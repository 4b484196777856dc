"""One benchmark workload in its own process: set up, measure, check.

    PYTHONPATH=src python benchmarks/spine/workloads.py WORKLOAD \\
        --seed S --seconds T --work DIR [--setup-only] [--trace-dir DIR]

``run.py`` starts this once per set-up it times and once more for the
measured run, each time with a fresh private ``REPRO_SDS_CACHE_DIR`` under
``DIR``.  The last line of standard output is one JSON object.

Workloads (see README.md for why each exists):

* ``svc_hot`` / ``svc_miss`` — a ``repro serve`` process driven by a
  closed-loop client over ``nproc`` connections; every reply hits the
  verdict LRU on ``svc_hot`` and misses it on ``svc_miss``.
* ``solve_search`` — ``solve_task`` on four warm levels that are
  dominated by the kernel search.
* ``model_b3`` — ``solve_task`` of a (4-process, b=3) query under
  ``t_resilient(1)``, dominated by substrate thaw and restriction.

Library calls go through module attributes (``solvability.solve_task``),
never through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import expected
import loadgen
import speed
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

WORKLOADS = ("svc_hot", "svc_miss", "solve_search", "model_b3")

#: Load is sized to the machine, capped so a large host does not fork a
#: pool that outgrows a shared sandbox's memory.
NPROC = min(len(os.sched_getaffinity(0)), 8)

#: Service windows run as closed-loop slices of about this many seconds,
#: each scaled by the speed probes on either side of it.
SLICE_S = 1.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``, ``q`` in 0..100 (0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class Window:
    """One measured stretch, as slices timed between two speed probes.

    Each slice's times are scaled to the reference speed (``speed.py``)
    with the probes on either side of it.  ``seconds`` is the wall time
    inside slices, so the probes count neither as work nor as idle.
    """

    started: float = 0.0
    ended: float = 0.0
    seconds: float = 0.0
    scaled_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)  # scaled s per operation
    references: list[float] = field(default_factory=list)  # probed loop seconds
    attempted: int = 0
    failed: int = 0

    def add_slice(self, seconds: float, latencies: list[float], after: float) -> None:
        factor = speed.scale(self.references[-1], after)
        self.references.append(after)
        self.seconds += seconds
        self.scaled_seconds += seconds * factor
        self.latencies.extend(latency * factor for latency in latencies)

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.scaled_seconds


@dataclass
class Run:
    """Everything one child reports."""

    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    reference_s: float = 0.0  # median probed loop time over the measured window
    layers: dict[str, float] = field(default_factory=dict)
    table: str = ""

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def to_json(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "reference_s": self.reference_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.failed == 0 and not self.problems,
            "problems": self.problems,
            "metrics": self.metrics,
            "layers": self.layers,
            "table": self.table,
        }


# -- in-process workloads ------------------------------------------------------


class SolveSearch:
    """Four single-level probes in seeded order; the kernel search dominates."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def setup(self) -> tuple[int, int]:
        from repro.core import solvability
        from repro.service.registry import resolve_task

        self.solvability = solvability
        self.cases = [
            (resolve_task(name, args), low, high, budget, want)
            for (name, args, low, high, budget), want in expected.SOLVE_CASES.items()
        ]
        return self.op()

    def op(self) -> tuple[int, int]:
        failed = 0
        for task, low, high, budget, want in self.rng.sample(self.cases, len(self.cases)):
            result = self.solvability.solve_task(
                task, high, min_rounds=low, node_budget=budget
            )
            failed += (result.status.value, result.rounds) != want
        return len(self.cases), failed


class ModelB3:
    """One (4-process, b=3) model query; thaw and restriction dominate."""

    def __init__(self, rng: random.Random):
        self.rng = rng  # a single fixed query: the seed has nothing to vary

    def setup(self) -> tuple[int, int]:
        from repro.core import solvability
        from repro.models import resolve_model
        from repro.service.registry import resolve_task

        name, args, self.low, self.high, (model, model_args) = expected.MODEL_CASE
        self.solvability = solvability
        self.task = resolve_task(name, args)
        self.model = resolve_model(model, model_args)
        return self.op()

    def op(self) -> tuple[int, int]:
        result = self.solvability.solve_task(
            self.task, self.high, min_rounds=self.low, model=self.model
        )
        return 1, int((result.status.value, result.rounds) != expected.MODEL_VERDICT)


IN_PROCESS = {
    "solve_search": SolveSearch,
    "model_b3": ModelB3,
}


def measure(op, seconds: float, reference: float) -> Window:
    """Run ``op`` for about ``seconds`` (at least once), probing between calls.

    ``reference`` is the probe taken just before.  The window ends at the
    call boundary nearest to ``seconds``, so a workload of multi-second
    calls does not overrun by a whole call.
    """
    window = Window(started=time.perf_counter(), references=[reference])
    while True:
        began = time.perf_counter()
        checked, failed = op()
        elapsed = time.perf_counter() - began
        window.add_slice(elapsed, [elapsed], speed.probe(elapsed))
        window.attempted += checked
        window.failed += failed
        mean_call = window.seconds / len(window.latencies)
        if window.seconds + mean_call / 2 >= seconds:
            break
    window.ended = time.perf_counter()
    return window


def run_in_process(name: str, rng, seconds: float, trace_dir: str | None, run: Run):
    before = speed.probe()
    began = time.perf_counter()
    workload = IN_PROCESS[name](rng)
    checked, failed = workload.setup()
    elapsed = time.perf_counter() - began
    after = speed.probe(elapsed)
    run.setup_s = elapsed * speed.scale(before, after)
    run.attempted += checked
    run.failed += failed
    if seconds <= 0:
        return
    if trace_dir is None:
        window = measure(workload.op, seconds, after)
        run.attempted += window.attempted
        run.failed += window.failed
        run.metrics = {
            "ops_per_s": window.ops_per_s(),
            "peak_rss_mb": loadgen.vm_hwm_mb(os.getpid()),
        }
        run.reference_s = statistics.median(window.references)
        return
    plain = measure(workload.op, seconds / 2, after)
    with tracing.Tracer(flush_dir=trace_dir) as tracer:
        traced = measure(workload.op, seconds / 2, plain.references[-1])
    tracer.flush()
    for window in (plain, traced):
        run.attempted += window.attempted
        run.failed += window.failed
    rows = tracing.self_times(tracer.spans)
    unattributed_s = traced.seconds - sum(row.self_s for row in rows.values())
    run.layers = layer_metrics(rows, traced, plain, unattributed_s=unattributed_s)
    run.table = tracing.format_table(rows, traced.seconds, unattributed_s, name)


# -- service workloads ---------------------------------------------------------


class ServiceLoad:
    """The zoo mix against a live server; ``miss`` gives every query its own key."""

    def __init__(self, rng: random.Random, miss: bool):
        from repro.service.registry import zoo_mix

        self.miss = miss
        self.mix = []
        for request in zoo_mix():
            model = request.get("model")
            key = (
                request["task"]["name"],
                tuple(request["task"]["args"]),
                None if model is None else (model["name"], tuple(model["args"])),
                request["max_rounds"],
            )
            self.mix.append((request, expected.ZOO_VERDICTS[key]))
        self.offsets = [rng.randrange(len(self.mix)) for _ in range(NPROC)]
        self.sent = [0] * NPROC
        # Every zoo level exhausts within a few hundred nodes, so any budget
        # past 2M leaves verdicts unchanged while keying a fresh cache entry.
        self.budget_base = 2_000_000 + rng.randrange(1, 1_000_000)
        self.budgets = 0
        self.frames = [loadgen.frame(request) for request, _want in self.mix]

    def sweep_queries(self) -> list[loadgen.Query]:
        return [
            loadgen.Query(frame, want)
            for frame, (_request, want) in zip(self.frames, self.mix)
        ]

    def next_query(self, conn: int) -> loadgen.Query:
        index = (self.offsets[conn] + self.sent[conn]) % len(self.mix)
        self.sent[conn] += 1
        request, want = self.mix[index]
        if not self.miss:
            return loadgen.Query(self.frames[index], want)
        self.budgets += 1
        budget = self.budget_base + self.budgets
        return loadgen.Query(loadgen.frame({**request, "node_budget": budget}), want)


def start_service(
    load: ServiceLoad, work: str, tag: str, trace_dir: str | None, run: Run
) -> loadgen.Server:
    """Boot a fresh server on its own cache and answer the mix once (cold)."""
    cache_dir = os.path.join(work, f"cache-{tag}")
    os.makedirs(cache_dir)
    server = loadgen.Server(
        root=ROOT,
        socket_path=os.path.relpath(os.path.join(work, f"{tag}.sock"), ROOT),
        cache_dir=cache_dir,
        log_path=os.path.join(work, f"server-{tag}.log"),
        workers=NPROC,
        trace_dir=trace_dir,
    )
    before = speed.probe(every_cpu=True)
    began = time.perf_counter()
    server.start()
    try:
        queries = load.sweep_queries()
        failed = loadgen.serial_sweep(server, queries)
        elapsed = time.perf_counter() - began
        run.setup_s = elapsed * speed.scale(before, speed.probe(elapsed, every_cpu=True))
    except BaseException:
        server.stop()
        raise
    run.attempted += len(queries)
    run.failed += failed
    return server


def service_window(server: loadgen.Server, load: ServiceLoad, seconds: float, run: Run):
    """Closed-loop slices of about ``SLICE_S`` with a speed probe after each.

    The server's event loop and the client share one CPU.  Every query
    crosses both, and a round trip between two CPUs of a VM waits for the
    host to wake the other CPU, which varies from minute to minute and which
    no probe measures.  The pool workers, forked during set-up, keep every
    CPU.  On ``svc_hot`` all the work runs on the shared CPU, so the probe
    runs there; on ``svc_miss`` the workers do it, so the probe visits
    every CPU.
    """
    before = server.request({"op": "stats"})["stats"]
    cpu_before = server.cpu_s()
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(server.proc.pid, {cpus[-1]})
    os.sched_setaffinity(0, {cpus[-1]})
    every_cpu = load.miss
    slices = max(1, round(seconds / SLICE_S))
    ok = hits = 0
    rtt_s = transport_s = 0.0
    try:
        window = Window(
            started=time.perf_counter(),
            references=[speed.probe(seconds / slices, every_cpu)],
        )
        for _ in range(slices):
            result = loadgen.closed_loop(
                server, load.next_query, connections=NPROC, seconds=seconds / slices
            )
            window.add_slice(
                result.seconds, result.rtts, speed.probe(result.seconds, every_cpu)
            )
            window.attempted += result.attempted
            window.failed += result.failed
            ok += result.ok
            hits += result.hits
            rtt_s += sum(result.rtts)
            transport_s += sum(result.transports)
        window.ended = time.perf_counter()
    finally:
        os.sched_setaffinity(0, cpus)
    cpu_s = server.cpu_s() - cpu_before
    after = server.request({"op": "stats"})["stats"]
    run.attempted += window.attempted
    run.failed += window.failed
    hit_frac = hits / ok if ok else 0.0
    if load.miss:
        run.check(hits == 0, f"svc_miss saw {hits} verdict-LRU hits")
    else:
        run.check(hit_frac >= 0.99, f"svc_hot hit fraction {hit_frac:.4f} < 0.99")
    stats = {
        "hit_frac": hit_frac,
        "queue_depth_peak": after["queue_depth_peak"],
        "probe_s": after["probe_seconds"] - before["probe_seconds"],
        "transport_frac": transport_s / rtt_s,
        "server_cpu_s": cpu_s,
    }
    return window, stats


def run_service(name: str, rng, seconds: float, work: str, trace_dir: str | None, run: Run):
    load = ServiceLoad(rng, miss=name == "svc_miss")
    server = start_service(load, work, "a", None, run)
    try:
        if seconds <= 0:
            return
        plain, _stats = service_window(
            server, load, seconds if trace_dir is None else seconds / 2, run
        )
        if trace_dir is None:
            run.metrics = {
                "ops_per_s": plain.ops_per_s(),
                "peak_rss_mb": server.peak_rss_mb(),
            }
            run.reference_s = statistics.median(plain.references)
    finally:
        server.stop()
    if trace_dir is not None:
        trace_service(name, load, plain, seconds / 2, work, trace_dir, run)


def trace_service(name, load, plain: Window, seconds: float, work, trace_dir, run: Run):
    """A second server under the tracer; layers come from its measured window."""
    began = time.perf_counter()
    server = start_service(load, work, "b", trace_dir, run)
    setup_window = (began, time.perf_counter())
    try:
        traced, stats = service_window(server, load, seconds, run)
    finally:
        server.stop()
    window = (traced.started, traced.ended)
    by_pid = tracing.load_spans(trace_dir)
    rows = tracing.self_times(by_pid.pop(server.proc.pid, []), window)
    # Unattributed time is the server's CPU time outside every traced span:
    # its event loop is the one resource every query crosses, and on the
    # miss path it mostly sits idle waiting for the pool.
    unattributed_s = stats["server_cpu_s"] - sum(row.self_s for row in rows.values())
    warm_s = 0.0
    for spans in by_pid.values():
        for layer, row in tracing.self_times(spans, window).items():
            rows.setdefault(layer, tracing.LayerRow()).add(row)
        warm = tracing.self_times(spans, setup_window).get("service.worker.warm")
        warm_s += warm.total_s if warm else 0.0
    stats["warm_frac"] = warm_s / (setup_window[1] - setup_window[0])
    run.layers = layer_metrics(
        rows, traced, plain, unattributed_s=unattributed_s, service=stats
    )
    run.table = tracing.format_table(
        rows, traced.seconds, unattributed_s, f"{name} (server + workers)"
    )


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(
    rows: dict[str, tracing.LayerRow],
    traced: Window,
    plain: Window,
    *,
    unattributed_s: float,
    service: dict | None = None,
) -> dict[str, float]:
    """The per-layer metrics of one traced window (see README.md).

    Times are self-time shares of the window's wall time, so layers a
    workload never enters read 0 and shares compare across workloads; counts
    are per operation (a query or a pass).  Latencies come from the
    untraced window and are scaled like the end-to-end metrics.
    """
    wall = traced.seconds
    ops = len(traced.latencies)
    service = service or {}

    def row(layer: str) -> tracing.LayerRow:
        return rows.get(layer, tracing.LayerRow())

    def share(layer: str) -> float:
        return row(layer).self_s / wall

    search = row("kernel.search")
    probe_s = service.get("probe_s", 0.0)
    return {
        "latency_p50_ms": percentile(plain.latencies, 50) * 1e3,
        "latency_p99_ms": percentile(plain.latencies, 99) * 1e3,
        "service.codec_frac": share("service.codec"),
        "service.validate_frac": share("service.validate"),
        "service.query_key_frac": share("service.query_key"),
        "service.transport_frac": service.get("transport_frac", 0.0),
        "service.hit_frac": service.get("hit_frac", 0.0),
        "service.queue_depth_peak": service.get("queue_depth_peak", 0),
        "service.probe_frac": probe_s / wall,
        "service.worker.probe_frac": share("service.worker.probe"),
        "service.worker.dispatch_frac": (
            (probe_s - row("service.worker.probe").total_s) / wall if probe_s else 0.0
        ),
        "service.worker.warm_frac": service.get("warm_frac", 0.0),
        "topology.substrate_frac": share("topology.substrate"),
        "topology.substrate_calls": row("topology.substrate").calls / ops,
        "models.restrict_frac": share("models.restrict"),
        "models.restrict_calls": row("models.restrict").calls / ops,
        "kernel.compile_frac": share("kernel.compile"),
        "kernel.search_frac": share("kernel.search"),
        "kernel.nodes": search.counts.get("nodes", 0) / ops,
        "kernel.nodes_per_s": (
            search.counts.get("nodes", 0) / search.self_s if search.self_s else 0.0
        ),
        "kernel.conflicts": search.counts.get("conflicts", 0) / ops,
        "kernel.backjumps": search.counts.get("backjumps", 0) / ops,
        "kernel.exhausted_frac": (
            search.counts.get("exhausted", 0) / search.calls if search.calls else 0.0
        ),
        "solvability.validate_frac": share("solvability.validate"),
        "solvability.self_frac": share("solvability.solve"),
        "unattributed_frac": unattributed_s / wall,
        "trace_overhead_frac": (
            percentile(traced.latencies, 50) / percentile(plain.latencies, 50) - 1.0
        ),
    }


def compress_spans(trace_dir: str) -> None:
    """Fold the per-pid span files into one ``spans.jsonl.gz``."""
    names = sorted(n for n in os.listdir(trace_dir) if n.startswith("spans-"))
    with gzip.open(os.path.join(trace_dir, "spans.jsonl.gz"), "wt") as out:
        for name in names:
            path = os.path.join(trace_dir, name)
            with open(path) as handle:
                shutil.copyfileobj(handle, out)
            os.remove(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True, help="private scratch directory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    rng = random.Random(f"{args.workload}:{args.seed}")
    seconds = 0.0 if args.setup_only else args.seconds
    run = Run()
    if args.workload in IN_PROCESS:
        run_in_process(args.workload, rng, seconds, args.trace_dir, run)
    else:
        run_service(args.workload, rng, seconds, args.work, args.trace_dir, run)
    if args.trace_dir is not None:
        compress_spans(args.trace_dir)
    print(json.dumps(run.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
