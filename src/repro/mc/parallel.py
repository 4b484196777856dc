"""Worker-parallel exploration by frontier splitting.

Mirrors the CSP kernel's ``root_domain_chunks`` pattern: the schedule tree's
frontier is expanded breadth-first to a deterministic split point, sliced
into contiguous chunks (earliest leaves first), and each chunk is explored
to exhaustion in its own worker process.  Scenarios are small picklable
dataclasses, so workers rebuild the system under test locally; the state
cache is per-worker (chunks may duplicate a little cross-chunk work, which
costs time but never soundness).  Scanning chunk reports in order makes the
first reported violation deterministic — the same one the serial walk finds
first.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from repro.mc.explorer import (
    ExplorationReport,
    ExploreOptions,
    explore,
    frontier,
    frontier_chunks,
)
from repro.mc.scenario import Scenario
from repro.topology.orbits import prime_packed_tables


def _explore_chunk(
    scenario: Scenario,
    options: ExploreOptions,
    chunk: list,
) -> ExplorationReport:
    if not chunk:
        return ExplorationReport(scenario.name, options)
    return explore(scenario, options, _seed_frontier=chunk)


def explore_parallel(
    scenario: Scenario,
    options: ExploreOptions = ExploreOptions(),
    *,
    workers: int,
    leaves_per_worker: int = 4,
) -> ExplorationReport:
    """Explore ``scenario`` with ``workers`` processes; merge the reports.

    Equivalent to :func:`repro.mc.explorer.explore` (same outcome coverage;
    violations deterministic by chunk order) up to the per-worker state
    caches, which may make the merged work counters slightly larger than a
    serial run's.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if workers == 1:
        return explore(scenario, options)

    leaves, merged = frontier(
        scenario, options, min_leaves=workers * leaves_per_worker
    )
    merged.options = options
    if merged.violations and options.stop_on_violation:
        return merged
    if not leaves:
        return merged

    chunks = frontier_chunks(leaves, workers)
    # Chunk workers read packed builds from the shared disk cache; deriving
    # the orbit tables is the per-process cost worth paying up front.
    with ProcessPoolExecutor(
        max_workers=workers, initializer=prime_packed_tables
    ) as executor:
        futures = [
            executor.submit(_explore_chunk, scenario, options, chunk)
            for chunk in chunks
        ]
        try:
            reports = [future.result() for future in futures]
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise

    for report in reports:  # chunk order == frontier order: deterministic
        merged.outcomes |= report.outcomes
        merged.stats.merge(report.stats)
        merged.violations.extend(report.violations)
    return merged
