"""Pool-side entry points: what the service ships to its worker processes.

Everything here is a module-level function of plain ints/strings/dicts —
the only things that cross the process boundary.  Tasks are resolved from
their registry spec inside the worker (:func:`repro.service.registry.resolve_task`),
so a request frame never pickles a complex; the worker's probe then hits
the persistent packed-``SDS^b`` store that the first builder populated,
which is the fork-shared substrate the service's throughput rests on.

Each worker keeps what a query derives from its (task spec, level, model):
``resolve_task`` returns the worker's one memoized task per spec, the level
comes from the substrate memos, and the task memoizes the level's compiled
CSP (with its AC-3 and variable-order prologue) and its Δ-check plan.  A
repeated spec therefore costs the worker a search from the stored prologue
and a plan-driven check of every face of the witness, not a task build, a
compile and a face-by-face validation.  Verdicts are never memoized here;
the server's verdict LRU is the only answer cache.

Every satisfiable answer is validated in the worker that found it:
``service_probe`` through ``solve_task``, and each root-domain chunk of a
sharded query (``service_probe_chunk``) on its own subdivision before its
report leaves the worker.  A map that fails the check raises, and the
query is answered with an error, never ``solvable``.
"""

from __future__ import annotations

from typing import Any

from repro.core.solvability import (
    LevelReport,
    SearchOptions,
    SolvabilityStatus,
    _probe_level,
    merge_chunk_reports,
    solve_task,
    validate_decision_map,
)
from repro.service.registry import resolve_task
from repro.topology.maps import SimplicialMap


def warm_service_worker(warm_levels: tuple[tuple[int, int], ...] = ()) -> None:
    """Pool initializer: orbit tables + the configured ``SDS^b(s^n)`` levels.

    :func:`prime_packed_tables` is pure-integer and per-process;
    :func:`sds_cache.warm` is a disk hit for every worker after the first
    (or after ``repro cache warm``), so initialization cost is one packed
    build per ``(n, b)`` *across the whole pool*, not per worker.
    """
    from repro.topology import sds_cache
    from repro.topology.orbits import prime_packed_tables

    prime_packed_tables()
    for n, rounds in warm_levels:
        if rounds >= 1:
            sds_cache.warm(n, rounds)


def report_dict(report: LevelReport) -> dict[str, Any]:
    return {
        "rounds": report.rounds,
        "satisfiable": report.satisfiable,
        "nodes": report.nodes_explored,
        "vertices": report.vertices,
        "exhausted": report.exhausted,
        "elapsed_ms": round(report.elapsed_seconds * 1e3, 3),
        "conflicts": report.conflicts,
        "backjumps": report.backjumps,
    }


def substrate_key(
    name: str,
    args: tuple[int, ...],
    rounds: int,
    model: tuple[str, tuple[int, ...]] | None = None,
) -> str:
    """The persistent-cache structure key of a spec's level substrate.

    Two specs whose input complexes are structurally identical (e.g.
    ``set_consensus(3, 2)`` and ``set_consensus(3, 3)``) map to the same
    key, so the scheduler coalesces their substrate warm passes as well.
    Non-identity models extend the key with the model fingerprint — their
    warm pass builds the restricted packed store instead of the full one,
    so it must not coalesce with (or be satisfied by) a plain full-build
    warm.
    """
    from repro.topology.compact import CompactComplex
    from repro.topology.sds_cache import structure_key

    probe_model = _resolve_probe_model(model)
    fingerprint = None if probe_model is None else probe_model.fingerprint
    frozen = CompactComplex.freeze(resolve_task(name, args).input_complex)
    return structure_key(
        tuple(frozen.colors),
        tuple(frozen.tops()),
        rounds,
        model_fingerprint=fingerprint,
    )


def warm_substrate(
    name: str,
    args: tuple[int, ...],
    rounds: int,
    model: tuple[str, tuple[int, ...]] | None = None,
) -> bool:
    """Build (or disk-hit) the level substrate the probe of a spec reads.

    Runs in a worker so the event loop never blocks on a build; the packed
    result lands in the shared persistent store, turning every subsequent
    probe of the same ``(base, rounds)`` — from any worker — into a load.
    A non-identity ``model`` warms only its orbit-pruned restricted store
    (``.m-{slug}`` cache entry): model probes never read the full level.
    """
    from repro.models.base import ModelRestrictionEmpty
    from repro.topology.standard_chromatic import (
        iterated_standard_chromatic_subdivision,
    )

    task = resolve_task(name, args)
    try:
        iterated_standard_chromatic_subdivision(
            task.input_complex, rounds, model=_resolve_probe_model(model)
        )
    except ModelRestrictionEmpty:
        pass  # an empty restriction is the probe's verdict, not a warm failure
    return True


def _resolve_probe_model(model: tuple[str, tuple[int, ...]] | None):
    """Canonical ``(name, args)`` → Model instance, ``None`` for identity.

    Identity specs resolve to ``None`` so the solver takes the exact
    pre-model code path — ``model="iis"`` queries are bit-identical to
    queries that never mention a model.
    """
    if model is None or model[0] == "iis":
        return None
    from repro.models import resolve_model

    return resolve_model(model[0], model[1])


def service_probe(
    name: str,
    args: tuple[int, ...],
    min_rounds: int,
    max_rounds: int,
    node_budget: int,
    options: dict[str, Any],
    model: tuple[str, tuple[int, ...]] | None = None,
) -> dict[str, Any]:
    """One full solvability query, worker-side; returns a plain-dict verdict."""
    task = resolve_task(name, args)
    probe_model = _resolve_probe_model(model)
    result = solve_task(
        task,
        max_rounds,
        min_rounds=min_rounds,
        node_budget=node_budget,
        options=SearchOptions(**options),
        model=probe_model,
    )
    summary = {
        "task": task.name,
        "verdict": result.status.value,
        "rounds": result.rounds,
        "levels": [report_dict(level) for level in result.levels],
    }
    if probe_model is not None:
        summary["model"] = probe_model.fingerprint
    return summary


def service_probe_chunk(
    name: str,
    args: tuple[int, ...],
    rounds: int,
    node_budget: int,
    options: dict[str, Any],
    chunk: int,
    n_chunks: int,
    model: tuple[str, tuple[int, ...]] | None = None,
) -> LevelReport:
    """One root-domain chunk of a single-level probe (the sharded path).

    A satisfiable chunk's map is checked with ``validate_decision_map`` on
    the chunk's subdivision before the report is returned, as
    ``solve_task`` checks the serial path's witness.
    """
    task = resolve_task(name, args)
    mapping, report, subdivision = _probe_level(
        task,
        rounds,
        node_budget,
        SearchOptions(**options),
        root_slice=(chunk, n_chunks),
        model=_resolve_probe_model(model),
    )
    if mapping is not None:
        decision_map = SimplicialMap(subdivision.complex, task.output_complex, mapping)
        validate_decision_map(subdivision, task, decision_map)
    return report


def combine_chunk_reports(task_name: str, chunks: list[LevelReport]) -> dict[str, Any]:
    """Merge chunk reports in value order into one solve-shaped summary.

    The merge is :func:`repro.core.solvability.merge_chunk_reports`, the
    one ``solve_task``'s within-level split uses.
    """
    _first, level = merge_chunk_reports(chunks)
    if level.satisfiable:
        status, rounds = SolvabilityStatus.SOLVABLE, level.rounds
    elif level.exhausted:
        status, rounds = SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND, None
    else:
        status, rounds = SolvabilityStatus.UNKNOWN, None
    return {
        "task": task_name,
        "verdict": status.value,
        "rounds": rounds,
        "levels": [report_dict(level)],
        "shards": len(chunks),
    }
