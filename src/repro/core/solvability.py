"""The characterization engine: searching for the decision map.

Proposition 3.1: a bounded task ``T = (I, O, Δ)`` is wait-free solvable in
the IIS model iff for some ``b`` there is a color-preserving simplicial map
``µ_b : SDS^b(I) → O`` with ``µ_b(s) ∈ Δ(carrier(s))`` for every simplex
``s``.  Section 4's emulation extends this verdict to the atomic-snapshot
model.  The condition is *not* effective in general (solvability is
undecidable for three or more processors, [9]) — but for a fixed ``b`` it is
a finite constraint-satisfaction problem, and this module solves it exactly:

* SAT ⇒ the returned map is machine-validated (simplicial, chromatic,
  Δ-respecting) and :mod:`repro.core.protocol_synthesis` compiles it into a
  runnable protocol;
* UNSAT at level ``b`` ⇒ the exhaustive backtracking search is itself the
  certificate that no round-``b`` protocol exists (the all-``b`` arguments
  live in :mod:`repro.core.impossibility`).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from repro.core.task import Task
from repro.obs import OBS as _OBS
from repro.obs import span as _obs_span
from repro.topology.maps import SimplicialMap
from repro.topology.orbits import prime_packed_tables
from repro.topology.simplex import Simplex
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision
from repro.topology.subdivision import Subdivision
from repro.topology.vertex import Vertex


@dataclass(frozen=True, slots=True)
class SearchOptions:
    """Strategy knobs for the decision-map search (ablation surface).

    Defaults are the production configuration; the ablation benchmark
    (``benchmarks/bench_ablation_search.py``) quantifies what each one buys.

    * ``arc_consistency`` — AC-3 preprocessing over edge constraints; for
      path-like instances (two-process tasks) it leaves exactly the
      feasible values and often refutes UNSAT levels with zero search.
    * ``forward_checking`` — prune neighbouring domains on each assignment.
    * ``adjacency_order`` — keep the assignment frontier connected; without
      it conflicts surface late and the search degenerates.
    * ``kernel`` — run the search on the bitset-compiled CSP kernel
      (:mod:`repro.core.csp_kernel`): integer-interned domains, bitmask
      constraint tables, and conflict-directed backjumping.  ``False``
      falls back to :func:`_search_map_naive`, the reference oracle the
      equivalence tests compare against.
    * ``mask_backend`` — mask representation for the *sharded* probe
      (:func:`probe_level_sharded`): ``"int"`` compiles Python-int bitmask
      structures (no width limits; the differential oracle), ``"numpy"``
      compiles ``uint64`` arrays (:mod:`repro.core.mask_kernel`; raises
      :class:`~repro.core.mask_kernel.UnsupportedByArrayKernel` past a
      64-bit word limit), and ``"auto"`` tries numpy and falls back to int
      (counting the degradation on the ``kernel.mask_fallback`` obs
      counter).  Both backends carry model restrictions and produce the
      same verdict, the same first decision map and the same search
      statistics.  Ignored by the non-sharded paths.
    """

    arc_consistency: bool = True
    forward_checking: bool = True
    adjacency_order: bool = True
    kernel: bool = True
    mask_backend: str = "auto"


class SolvabilityStatus(enum.Enum):
    """Outcome of the level-by-level decision-map search."""

    SOLVABLE = "solvable"
    UNSOLVABLE_UP_TO_BOUND = "unsolvable-up-to-bound"
    UNKNOWN = "unknown"  # search aborted by the node budget


@dataclass(frozen=True, slots=True)
class LevelReport:
    """What happened at one subdivision level."""

    rounds: int
    satisfiable: bool
    nodes_explored: int
    vertices: int
    exhausted: bool  # False when the node budget stopped the search
    elapsed_seconds: float
    conflicts: int = 0  # failed candidate attempts (kernel search)
    backjumps: int = 0  # conflict-directed jumps skipping >= 1 level


@dataclass(slots=True)
class SolvabilityResult:
    task_name: str
    status: SolvabilityStatus
    rounds: int | None
    decision_map: SimplicialMap | None
    subdivision: Subdivision | None
    levels: list[LevelReport]

    def __repr__(self) -> str:
        return (
            f"SolvabilityResult({self.task_name!r}, {self.status.value}, "
            f"rounds={self.rounds})"
        )


def _probe_level(
    task: Task,
    rounds: int,
    node_budget: int,
    options: SearchOptions,
    root_slice: tuple[int, int] | None = None,
    model=None,
) -> tuple[dict[Vertex, Vertex] | None, LevelReport, Subdivision | None]:
    """Build ``SDS^rounds(I)`` and run the search; one unit of level work.

    Module-level (rather than a closure) so the ``max_workers`` fan-out in
    :func:`solve_task` can ship it to a process pool.  The witnessing
    subdivision rides back with a satisfiable mapping so the parent never
    rebuilds ``SDS^rounds`` from scratch before validation (UNSAT levels
    return ``None`` there — no point pickling a complex nobody needs).

    ``root_slice = (chunk_index, n_chunks)`` restricts the kernel search to
    one contiguous slice of the first search variable's domain — the
    within-level parallel split of :func:`solve_task`.

    ``model`` (non-identity) probes the model's restricted subcomplex, which
    the substrate builds orbit-pruned without the full level; the compiler,
    search and validator run on it unchanged.
    """
    span = _obs_span("solve.level", task=task.name, rounds=rounds)
    with span:
        subdivision = iterated_standard_chromatic_subdivision(
            task.input_complex, rounds, model=model
        )
        started = time.perf_counter()
        mapping, nodes, exhausted, conflicts, backjumps = _search_map(
            subdivision, task, node_budget, options, root_slice=root_slice
        )
        elapsed = time.perf_counter() - started
        report = LevelReport(
            rounds=rounds,
            satisfiable=mapping is not None,
            nodes_explored=nodes,
            vertices=len(subdivision.complex.vertices),
            exhausted=exhausted,
            elapsed_seconds=elapsed,
            conflicts=conflicts,
            backjumps=backjumps,
        )
        span.set(satisfiable=report.satisfiable, nodes=nodes)
    return mapping, report, subdivision if mapping is not None else None


def _census_shard_chunk(
    base_colors,
    base_tops,
    rounds: int,
    shard_size: int,
    directory,
    model,
    shard_indices: list[int],
    collapse: bool,
):
    """Worker: face-census parts for one chunk of shard blocks.

    Reopens the sharded store (a manifest cache hit — the parent persisted
    it before fanning out), recomputes the deterministic variable
    renumbering (:func:`repro.models.packed.model_variables`, so only
    identity or native restricted stores fan out), and streams only its
    assigned blocks through the array census.  Parts merge
    order-independently in the parent
    (:func:`repro.core.mask_kernel.merge_census_parts`), so any partition
    of the shards yields the bit-identical compiled level.
    """
    import numpy as np

    from repro.core.mask_kernel import census_parts_for_blocks, renumbering
    from repro.models.packed import model_variables
    from repro.topology.shards import ensure_sharded

    sharded = ensure_sharded(
        base_colors,
        base_tops,
        rounds,
        shard_size=shard_size,
        directory=directory,
        model=model,
    )
    carrier_masks = sharded.carrier_masks
    variables = model_variables(sharded, model)
    renumber = None
    if variables is not None:
        renumber = renumbering(variables, len(carrier_masks))
        carrier_masks = [carrier_masks[vid] for vid in variables]
    cm64 = np.array([int(m) for m in carrier_masks], dtype=np.uint64)
    blocks = (sharded.shard(index) for index in shard_indices)
    return census_parts_for_blocks(blocks, cm64, collapse=collapse, renumber=renumber)


def probe_level_sharded(
    task: Task,
    rounds: int,
    *,
    node_budget: int = 2_000_000,
    options: SearchOptions = SearchOptions(),
    shard_size: int | None = None,
    directory=None,
    collapse: bool = True,
    model=None,
    max_workers: int | None = None,
) -> tuple[dict[Vertex, Vertex] | None, LevelReport, dict]:
    """Out-of-core solvability probe of one level: sharded build, packed compile.

    The in-RAM path (:func:`_probe_level`) materializes the full object-graph
    subdivision before searching; at ``(n, b) = (3, 3)`` that already costs
    ~3x the resident memory of this path, which streams orbit-generated top
    blocks to disk (:func:`repro.topology.shards.ensure_sharded`), compiles
    the CSP shard-at-a-time through the collapse census, and only ever
    materializes the final-level vertex chain.  Verdict and first decision
    map are identical to the in-RAM kernel probe compiled with the packed
    vertex order (``compile_level(..., vertex_order=chain)``).

    ``options.mask_backend`` picks the compile/search representation (see
    :class:`SearchOptions`); when ``"auto"`` degrades from numpy to int the
    ``kernel.mask_fallback`` obs counter records the perf cliff (surfaced
    by ``repro stats``).  Returns ``(mapping, report, extras)`` where
    ``extras`` carries the collapse report, the backend actually used, and
    the sharded build handle.

    ``model`` (non-identity) probes the model's restricted subcomplex
    *natively*: the sharded store itself is built orbit-pruned
    (:func:`repro.topology.shards.build_sds_sharded` with ``model=``), so
    inadmissible runs are never written, and both mask backends compile it
    without a run filter.  Raises
    :class:`~repro.models.base.ModelRestrictionEmpty` when the model admits
    no run at this level.

    ``max_workers`` (> 1) fans the per-shard face census across a process
    pool — each worker reopens the store from cache and censuses a
    contiguous chunk of shards; the merged census is bit-identical to the
    serial one, so verdict, first map and statistics are unchanged.  Used
    by the numpy backend; the int backend (the differential oracle) stays
    serial.
    """
    from repro.core.csp_kernel import compile_level_packed, kernel_search
    from repro.topology.compact import CompactComplex
    from repro.topology.shards import DEFAULT_SHARD_SIZE, ensure_sharded

    backend = options.mask_backend
    if backend not in ("int", "numpy", "auto"):
        raise ValueError(f"unknown mask backend: {backend!r}")
    span = _obs_span("solve.level.sharded", task=task.name, rounds=rounds)
    with span:
        frozen = CompactComplex.freeze(task.input_complex)
        base_colors = tuple(frozen.colors)
        base_tops = tuple(frozen.tops())
        resolved_shard_size = shard_size or DEFAULT_SHARD_SIZE
        sharded = ensure_sharded(
            base_colors,
            base_tops,
            rounds,
            shard_size=resolved_shard_size,
            directory=directory,
            model=model,
        )
        started = time.perf_counter()
        compiled = None
        search = kernel_search
        used = "int"
        census_workers = 0
        if backend in ("numpy", "auto"):
            from repro.core.mask_kernel import (
                UnsupportedByArrayKernel,
                array_search,
                compile_arrays,
                merge_census_parts,
            )

            census = None
            if (
                max_workers is not None
                and max_workers > 1
                and sharded.shard_count > 1
                and len(base_colors) <= 64
            ):
                from concurrent.futures import ProcessPoolExecutor

                n_workers = min(max_workers, sharded.shard_count)
                indices = [record[0] for record in sharded.shard_records]
                chunks = [indices[i::n_workers] for i in range(n_workers)]
                with ProcessPoolExecutor(
                    max_workers=n_workers, initializer=prime_packed_tables
                ) as ex:
                    futures = [
                        ex.submit(
                            _census_shard_chunk,
                            base_colors,
                            base_tops,
                            rounds,
                            resolved_shard_size,
                            str(sharded.directory),
                            model,
                            chunk,
                            collapse,
                        )
                        for chunk in chunks
                    ]
                    parts = [future.result() for future in futures]
                census = merge_census_parts(parts)
                census_workers = n_workers
            try:
                compiled, collapse_report = compile_arrays(
                    sharded,
                    task,
                    task.input_complex,
                    collapse=collapse,
                    model=model,
                    census=census,
                )
                search = array_search
                used = "numpy"
            except UnsupportedByArrayKernel:
                if backend == "numpy":
                    raise
                if _OBS.enabled:
                    _OBS.metrics.counter("kernel.mask_fallback").inc()
        if compiled is None:
            compiled, collapse_report = compile_level_packed(
                sharded, task, task.input_complex, collapse=collapse, model=model
            )
        mapping, stats = search(
            compiled,
            node_budget,
            arc_consistency=options.arc_consistency,
            forward_checking=options.forward_checking,
            adjacency_order=options.adjacency_order,
        )
        restricted = model is not None and not model.is_identity
        report = LevelReport(
            rounds=rounds,
            satisfiable=mapping is not None,
            nodes_explored=stats.nodes,
            vertices=len(compiled.verts) if restricted else sharded.vertex_count,
            exhausted=stats.exhausted,
            elapsed_seconds=time.perf_counter() - started,
            conflicts=stats.conflicts,
            backjumps=stats.backjumps,
        )
        span.set(satisfiable=report.satisfiable, nodes=stats.nodes, backend=used)
    extras = {
        "backend": used,
        "collapse": collapse_report,
        "sharded": sharded,
        "shards": sharded.shard_count,
        "census_workers": census_workers,
    }
    return mapping, report, extras


def solve_task(
    task: Task,
    max_rounds: int,
    *,
    min_rounds: int = 0,
    node_budget: int = 2_000_000,
    options: SearchOptions = SearchOptions(),
    max_workers: int | None = None,
    model=None,
) -> SolvabilityResult:
    """Search levels ``min_rounds .. max_rounds`` for a decision map.

    ``model`` (a :class:`repro.models.Model`; ``None`` = the full IIS model)
    restricts every probed level to the model's admitted runs — solvability
    *in the model* per the affine-task reduction.  Those levels come from
    the restricted orbit store; the full level is never built.  The
    identity model is a strict no-op: verdicts, first maps and search
    statistics are identical to omitting the argument.

    The levels are independent constraint problems; with ``max_workers``
    set (> 1) they are probed concurrently by a ``concurrent.futures``
    process pool and the verdict is read off in level order, so the result
    (including the witnessing level) is identical to the serial sweep — at
    the cost of some wasted work above the first satisfiable level.  When
    there is exactly *one* level to probe (``min_rounds == max_rounds``)
    and the kernel is enabled, ``max_workers`` instead splits the root
    search variable's domain into contiguous value-order chunks, one per
    worker; chunk verdicts are read off in value order, so the first map
    found is the one the serial search finds.
    """
    level_rounds = list(range(min_rounds, max_rounds + 1))
    levels: list[LevelReport] = []
    budget_hit = False
    parallel = max_workers is not None and max_workers > 1

    if parallel and len(level_rounds) == 1 and options.kernel:
        probes = [_probe_level_parallel_split(
            task, level_rounds[0], node_budget, options, max_workers, model=model
        )]
    elif parallel and len(level_rounds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(max_workers, len(level_rounds)),
            initializer=prime_packed_tables,
        ) as ex:
            futures = {
                rounds: ex.submit(
                    _probe_level, task, rounds, node_budget, options, model=model
                )
                for rounds in level_rounds
            }
            probes = []
            for rounds in level_rounds:
                mapping, report, subdivision = futures[rounds].result()
                probes.append((rounds, mapping, report, subdivision))
                if mapping is not None:
                    # Levels above the witness are wasted work: drop the ones
                    # that have not started instead of draining the queue.
                    ex.shutdown(wait=False, cancel_futures=True)
                    break
    else:
        probes = []
        for rounds in level_rounds:
            mapping, report, subdivision = _probe_level(
                task, rounds, node_budget, options, model=model
            )
            probes.append((rounds, mapping, report, subdivision))
            if mapping is not None:
                break

    for rounds, mapping, report, subdivision in probes:
        levels.append(report)
        if mapping is not None:
            decision_map = SimplicialMap(
                subdivision.complex, task.output_complex, mapping
            )
            validate_decision_map(subdivision, task, decision_map)
            return SolvabilityResult(
                task.name,
                SolvabilityStatus.SOLVABLE,
                rounds,
                decision_map,
                subdivision,
                levels,
            )
        if not report.exhausted:
            budget_hit = True
    status = (
        SolvabilityStatus.UNKNOWN
        if budget_hit
        else SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND
    )
    return SolvabilityResult(task.name, status, None, None, None, levels)


def _probe_level_parallel_split(
    task: Task,
    rounds: int,
    node_budget: int,
    options: SearchOptions,
    max_workers: int,
    model=None,
) -> tuple[int, dict[Vertex, Vertex] | None, LevelReport, Subdivision | None]:
    """One expensive level, root domain partitioned across worker processes.

    Every worker deterministically recompiles the level and takes the
    ``chunk_index``-th contiguous slice of the root variable's domain
    (:func:`repro.core.csp_kernel.root_domain_chunks`); slices are disjoint
    and cover the domain, so the union of exhaustive chunk searches is an
    exhaustive level search.  The node budget applies per chunk; the chunk
    reports merge in value order (:func:`merge_chunk_reports`).
    """
    from concurrent.futures import ProcessPoolExecutor

    n_chunks = max_workers
    with ProcessPoolExecutor(
        max_workers=max_workers, initializer=prime_packed_tables
    ) as ex:
        futures = [
            ex.submit(
                _probe_level,
                task,
                rounds,
                node_budget,
                options,
                (chunk, n_chunks),
                model=model,
            )
            for chunk in range(n_chunks)
        ]
        outcomes = [future.result() for future in futures]

    first, report = merge_chunk_reports([outcome[1] for outcome in outcomes])
    if first is None:
        return rounds, None, report, None
    mapping, _chunk_report, subdivision = outcomes[first]
    return rounds, mapping, report, subdivision


def merge_chunk_reports(reports: list[LevelReport]) -> tuple[int | None, LevelReport]:
    """Merge one level's root-domain chunk reports, scanned in value order.

    Returns the index of the first satisfiable chunk (``None`` when none
    is) and the level's report.  Chunks cover the root domain disjointly,
    so the first satisfiable chunk carries the serial search's first-found
    map; with no satisfiable chunk, one budget-stopped chunk makes the level
    ``exhausted=False`` (UNKNOWN), never a wrong verdict.  Counters sum;
    elapsed time is the slowest chunk's.  The service merges its chunk
    replies through this too.
    """
    first = next(
        (index for index, report in enumerate(reports) if report.satisfiable), None
    )
    return first, LevelReport(
        rounds=reports[0].rounds,
        satisfiable=first is not None,
        nodes_explored=sum(report.nodes_explored for report in reports),
        vertices=reports[0].vertices,
        exhausted=first is not None or all(report.exhausted for report in reports),
        elapsed_seconds=max(report.elapsed_seconds for report in reports),
        conflicts=sum(report.conflicts for report in reports),
        backjumps=sum(report.backjumps for report in reports),
    )


def validate_decision_map(
    subdivision: Subdivision, task: Task, decision_map: SimplicialMap
) -> None:
    """Machine-check Proposition 3.1's conditions on a candidate map.

    Simplicial and color-preserving via the map's own validators, then
    ``µ(s) ∈ Δ(carrier(s))`` for *every* simplex of the subdivision.  The
    Δ check runs against the task's memoized projection tables: for a
    color-preserving map the image of a chromatic simplex is allowed for
    its carrier exactly when its color-aligned vertex tuple is one of
    Δ(carrier)'s projections onto that color profile — an O(1) set
    membership instead of an ``is_face_of`` scan per face.
    """
    decision_map.validate(color_preserving=True)
    for simplex in subdivision.complex.simplices():
        carrier = subdivision.carrier_of(simplex)
        colors = tuple(v.color for v in simplex.sorted_vertices())
        image = decision_map.image_vertices(simplex)
        if not task.allows_projection(carrier, colors, image):
            raise ValueError(
                f"decision map violates Δ on {simplex!r}: "
                f"image {decision_map.image_of(simplex)!r} not allowed "
                f"for carrier {carrier!r}"
            )


def _adjacency_order(
    vertices: list[Vertex],
    domains: dict[Vertex, list[Vertex]],
    incident: dict[Vertex, list[Simplex]],
) -> list[Vertex]:
    """Assignment order that keeps the frontier connected.

    Backtracking over a subdivision is tractable only if conflicts surface
    immediately, which requires each newly assigned vertex to be adjacent to
    already-assigned ones.  We seed with the most-constrained vertex and
    greedily grow by (most assigned neighbours, smallest domain) — for
    path-like complexes this makes the search essentially linear, and it is
    what lets UNSAT levels be *exhausted* rather than merely sampled.
    """
    neighbors: dict[Vertex, set[Vertex]] = {v: set() for v in vertices}
    for vertex in vertices:
        for simplex in incident[vertex]:
            neighbors[vertex].update(u for u in simplex if u != vertex)
    remaining = set(vertices)
    order: list[Vertex] = []
    assigned_neighbor_count: dict[Vertex, int] = {v: 0 for v in vertices}
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -assigned_neighbor_count[v],
                len(domains[v]),
                v.sort_key(),
            ),
        )
        order.append(best)
        remaining.discard(best)
        for neighbor in neighbors[best]:
            if neighbor in remaining:
                assigned_neighbor_count[neighbor] += 1
    return order


def _search_map(
    subdivision: Subdivision,
    task: Task,
    node_budget: int,
    options: SearchOptions = SearchOptions(),
    *,
    root_slice: tuple[int, int] | None = None,
) -> tuple[dict[Vertex, Vertex] | None, int, bool, int, int]:
    """Search one level for a decision map; dispatches on ``options.kernel``.

    Returns ``(mapping or None, nodes, exhausted?, conflicts, backjumps)``.
    The kernel path compiles the level into bitmask form
    (:mod:`repro.core.csp_kernel`) and runs CBJ-FC on it; the naive path is
    the original object-level backtracking, kept as the reference oracle.
    Both are exact: verdicts (and, for SAT, the first map found) agree.
    """
    if options.kernel:
        from repro.core.csp_kernel import (
            compile_level,
            kernel_search,
            root_domain_chunks,
        )

        compiled = compile_level(subdivision, task)
        root_restrict: int | None = None
        if root_slice is not None:
            chunk_index, n_chunks = root_slice
            root_restrict = root_domain_chunks(
                compiled,
                arc_consistency=options.arc_consistency,
                adjacency_order=options.adjacency_order,
                n_chunks=n_chunks,
            )[chunk_index]
        mapping, stats = kernel_search(
            compiled,
            node_budget,
            arc_consistency=options.arc_consistency,
            forward_checking=options.forward_checking,
            adjacency_order=options.adjacency_order,
            root_restrict=root_restrict,
        )
        return mapping, stats.nodes, stats.exhausted, stats.conflicts, stats.backjumps
    if root_slice is not None:
        raise ValueError("the within-level parallel split requires options.kernel")
    mapping, nodes, exhausted = _search_map_naive(
        subdivision, task, node_budget, options
    )
    return mapping, nodes, exhausted, 0, 0


def _search_map_naive(
    subdivision: Subdivision,
    task: Task,
    node_budget: int,
    options: SearchOptions = SearchOptions(),
) -> tuple[dict[Vertex, Vertex] | None, int, bool]:
    """Backtracking search for the decision map (reference oracle).

    Returns ``(mapping or None, nodes explored, search exhausted?)``.
    Consistency is enforced incrementally: assigning a vertex re-checks every
    simplex containing it — the assigned portion of each such simplex must
    be a face of some allowed output tuple for the simplex's carrier.
    """
    complex_ = subdivision.complex
    all_simplices = [s for s in complex_.simplices() if s.dimension >= 1]
    carrier_cache: dict[Simplex, Simplex] = {
        s: subdivision.carrier_of(s) for s in all_simplices
    }

    vertices = sorted(complex_.vertices, key=Vertex.sort_key)
    domains: dict[Vertex, list[Vertex]] = {}
    for vertex in vertices:
        carrier = subdivision.carrier(vertex)
        domains[vertex] = task.candidate_decisions(carrier, vertex.color)
        if not domains[vertex]:
            return None, 0, True

    incident: dict[Vertex, list[Simplex]] = {v: [] for v in vertices}
    for simplex in all_simplices:
        for vertex in simplex:
            incident[vertex].append(simplex)

    edges = [s for s in all_simplices if s.dimension == 1]
    pair_ok = _edge_consistency(task, carrier_cache, edges)
    if options.arc_consistency and not _ac3(domains, edges, pair_ok):
        return None, 0, True  # arc consistency alone refutes the level

    if options.adjacency_order:
        order = _adjacency_order(vertices, domains, incident)
    else:
        order = sorted(vertices, key=lambda v: (len(domains[v]), v.sort_key()))

    edge_neighbors: dict[Vertex, list[tuple[Vertex, Simplex]]] = {
        v: [] for v in vertices
    }
    for edge in edges:
        u, w = edge.sorted_vertices()
        edge_neighbors[u].append((w, edge))
        edge_neighbors[w].append((u, edge))

    assignment: dict[Vertex, Vertex] = {}
    nodes = 0
    exhausted = True

    def consistent(vertex: Vertex) -> bool:
        for simplex in incident[vertex]:
            assigned = [assignment[u] for u in simplex if u in assignment]
            if len(assigned) < 2:
                continue
            image = Simplex(assigned)
            if image not in task.output_complex:
                return False
            if not task.allows(carrier_cache[simplex], image):
                return False
        return True

    def forward_check(vertex: Vertex, trail: list[tuple[Vertex, list[Vertex]]]) -> bool:
        """Prune unassigned edge-neighbours; record previous domains on the trail."""
        chosen = assignment[vertex]
        for neighbor, edge in edge_neighbors[vertex]:
            if neighbor in assignment:
                continue
            allowed = pair_ok[edge]
            old = domains[neighbor]
            if vertex == edge.sorted_vertices()[0]:
                new = [y for y in old if (chosen, y) in allowed]
            else:
                new = [y for y in old if (y, chosen) in allowed]
            if len(new) != len(old):
                trail.append((neighbor, old))
                domains[neighbor] = new
                if not new:
                    return False
        return True

    def backtrack(index: int) -> bool:
        nonlocal nodes, exhausted
        if index == len(order):
            return True
        vertex = order[index]
        for candidate in list(domains[vertex]):
            nodes += 1
            if nodes > node_budget:
                exhausted = False
                return False
            assignment[vertex] = candidate
            trail: list[tuple[Vertex, list[Vertex]]] = []
            if (
                consistent(vertex)
                and (not options.forward_checking or forward_check(vertex, trail))
                and backtrack(index + 1)
            ):
                return True
            for pruned_vertex, old_domain in trail:
                domains[pruned_vertex] = old_domain
            del assignment[vertex]
            if not exhausted:
                return False
        return False

    found = backtrack(0)
    if found:
        return dict(assignment), nodes, exhausted
    return None, nodes, exhausted


def _edge_consistency(
    task: Task,
    carrier_cache: dict[Simplex, Simplex],
    edges: list[Simplex],
) -> dict[Simplex, set[tuple[Vertex, Vertex]]]:
    """For each subdivision edge, the set of allowed ordered image pairs.

    Pairs are keyed by the edge's sorted vertex order: ``(image of first,
    image of second)``.  Built lazily per edge from Δ of the edge's carrier.
    """
    pair_ok: dict[Simplex, set[tuple[Vertex, Vertex]]] = {}
    for edge in edges:
        u, w = edge.sorted_vertices()
        carrier = carrier_cache[edge]
        allowed: set[tuple[Vertex, Vertex]] = set()
        for tuple_ in task.allowed_outputs(carrier):
            us = [x for x in tuple_ if x.color == u.color]
            ws = [x for x in tuple_ if x.color == w.color]
            for x in us:
                for y in ws:
                    allowed.add((x, y))
        pair_ok[edge] = allowed
    return pair_ok


def _ac3(
    domains: dict[Vertex, list[Vertex]],
    edges: list[Simplex],
    pair_ok: dict[Simplex, set[tuple[Vertex, Vertex]]],
) -> bool:
    """Arc consistency over the edge constraints; False when a domain empties.

    For subdivisions whose hard constraints are essentially path-like (the
    two-process case: ``SDS^b`` of an edge is a path), AC-3 leaves exactly
    the feasible values, making the subsequent search backtrack-free.
    """
    arcs: dict[Vertex, list[tuple[Vertex, Simplex, bool]]] = {}
    for edge in edges:
        u, w = edge.sorted_vertices()
        arcs.setdefault(u, []).append((w, edge, True))
        arcs.setdefault(w, []).append((u, edge, False))
    queue = list(domains)
    queued = set(queue)
    while queue:
        vertex = queue.pop()
        queued.discard(vertex)
        for other, edge, vertex_is_first in arcs.get(vertex, []):
            allowed = pair_ok[edge]
            if vertex_is_first:
                supported = [
                    x
                    for x in domains[vertex]
                    if any((x, y) in allowed for y in domains[other])
                ]
            else:
                supported = [
                    x
                    for x in domains[vertex]
                    if any((y, x) in allowed for y in domains[other])
                ]
            if len(supported) != len(domains[vertex]):
                domains[vertex] = supported
                if not supported:
                    return False
                if vertex not in queued:
                    queue.append(vertex)
                    queued.add(vertex)
                # Neighbours may lose support too.
                for neighbor, _edge, _dir in arcs.get(vertex, []):
                    if neighbor not in queued:
                        queue.append(neighbor)
                        queued.add(neighbor)
    return True
