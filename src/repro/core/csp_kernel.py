"""Bitset-compiled CSP kernel for the decision-map search.

:func:`repro.core.solvability._search_map_naive` solves Proposition 3.1's
per-level constraint problem over ``dict[Vertex, list[Vertex]]`` domains and
``set[tuple[Vertex, Vertex]]`` edge tables; every inner-loop step hashes
tuples and constructs :class:`Simplex` objects.  This module compiles the
same problem, once per level, into dense-integer structures so the hot loop
is pure ``&``/``popcount`` arithmetic on Python ints:

* subdivision vertices are interned to ``0..V-1`` in the library-wide
  deterministic order; each vertex's candidate decisions (from
  ``Δ(carrier(v))``, per color) to ``0..k-1`` in ``Vertex.sort_key`` order;
* every domain is one int bitmask over candidate indices;
* every incident-simplex constraint (each subdivision simplex of dimension
  ≥ 1) becomes a *tuple table*: the projections of ``Δ(carrier(s))`` onto
  the simplex's color profile (:meth:`Task.projected_tuples`), with a
  per-(position, candidate) bitmask over table rows.  A partial image is
  Δ-consistent iff the AND of its members' row masks is non-zero, which the
  search maintains incrementally (one AND per incident constraint per
  assignment) — the exact check ``_search_map_naive`` performs by building
  a ``Simplex`` and scanning allowed tuples;
* edge (2-ary) constraints additionally carry per-candidate support masks
  over the neighbour's domain, powering bitmask forward checking and AC-3.

On top of the compiled form the search runs **conflict-directed
backjumping** (Prosser's CBJ, extended to forward checking): each level
carries a conflict set — the bitmask of earlier levels that contributed to
any failure at or below it — and an exhausted level backjumps to the
deepest conflicting level instead of the chronologically previous one.
Values refuted with an *empty* conflict set are recorded as unary nogoods
(they can never participate in any solution at this level).  Both moves are
pruning-only: no branch that could contain a solution consistent with the
untouched prefix is ever skipped, so SAT answers find the same first map as
chronological backtracking under the identical ordering, and UNSAT levels
remain *exhaustive* — the exhaustion certificate is exactly as strong as
the naive search's, now with the conflict/backjump counts reported in
``LevelReport``.

``root_restrict`` lets :func:`repro.core.solvability.solve_task` partition
the first search variable's domain across worker processes for a single
expensive level; chunks are contiguous in value order, so scanning chunk
results in order preserves the serial first-found map.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.core.task import Task
from repro.obs import OBS as _OBS
from repro.topology.simplex import Simplex
from repro.topology.subdivision import Subdivision
from repro.topology.vertex import Vertex


@dataclass(slots=True)
class KernelStats:
    """Counters the search reports back into ``LevelReport``."""

    nodes: int = 0
    conflicts: int = 0
    backjumps: int = 0
    nogoods: int = 0
    exhausted: bool = True


@dataclass(slots=True)
class CompiledLevel:
    """One solvability level in dense-integer form (see module docstring)."""

    verts: list[Vertex]  # dense index -> subdivision vertex
    cands: list[list[Vertex]]  # per vertex: candidate decisions, sort_key order
    domains: list[int]  # per vertex: full candidate bitmask
    con_vars: list[tuple[int, ...]]  # per constraint: member vertex indices
    con_masks: list[list[list[int]]]  # constraint -> position -> candidate -> row mask
    con_full: list[int]  # per constraint: all-rows bitmask
    # vertex -> [(constraint, per-candidate row masks for the vertex's
    # position)]: the inner loop reads the mask list directly instead of
    # re-indexing constraint->position on every node.
    incident: list[list[tuple[int, list[int]]]]
    fc: list[list[tuple[int, list[int]]]]  # vertex -> [(neighbour, support masks)]
    neighbors: list[list[int]]  # vertex -> constraint co-members (deduplicated)
    infeasible: bool = False  # a domain or tuple table is empty: level is UNSAT
    # (arc_consistency, adjacency_order) -> search prologue (see
    # search_prologue); first writer wins, values are immutable tuples.
    prologues: dict[tuple[bool, bool], tuple] = field(default_factory=dict)

    def decode(self, assignment: list[int]) -> dict[Vertex, Vertex]:
        return {
            self.verts[i]: self.cands[i][a] for i, a in enumerate(assignment)
        }


def encode_rows(
    task: Task,
    carrier: Simplex,
    colors: tuple[int, ...],
    indices: list[dict[Vertex, int]],
) -> list[tuple[int, ...]]:
    """``Δ(carrier)`` projected onto ``colors``, as candidate-index rows.

    ``indices[position]`` maps the candidates of the constraint's
    ``position``-th member to their indices; a projection with an image no
    member can select is dropped.  The Δ-table row encoder of all three
    compilers: this module's two and
    :func:`repro.core.mask_kernel.compile_arrays`.
    """
    rows: list[tuple[int, ...]] = []
    for row in task.projected_tuples(carrier, colors):
        encoded = []
        for position, image in enumerate(row):
            j = indices[position].get(image)
            if j is None:
                break  # image never selectable at this vertex
            encoded.append(j)
        else:
            rows.append(tuple(encoded))
    return rows


def _tuple_table(task, carrier, colors, vids, cands, cand_index):
    """One constraint's table: ``(masks, full, supports)``.

    ``masks[position][j]`` is the bitmask of rows whose ``position``-th image
    is candidate ``j``, ``full`` the all-rows mask, and ``supports`` (2-ary
    constraints only) each candidate's supported values in the other
    member's domain.  Built on a ``_kernel_table_cache`` miss.
    """
    rows = encode_rows(task, carrier, colors, [cand_index[i] for i in vids])
    masks = [[0] * len(cands[i]) for i in vids]
    for row_number, row in enumerate(rows):
        bit = 1 << row_number
        for position, j in enumerate(row):
            masks[position][j] |= bit
    supports: list[list[int]] | None = None
    if len(vids) == 2:
        sup_first = [0] * len(cands[vids[0]])
        sup_second = [0] * len(cands[vids[1]])
        for a, b in rows:
            sup_first[a] |= 1 << b
            sup_second[b] |= 1 << a
        supports = [sup_first, sup_second]
    return masks, (1 << len(rows)) - 1, supports


def compile_level(
    subdivision: Subdivision,
    task: Task,
    vertex_order: list[Vertex] | None = None,
) -> CompiledLevel:
    """Intern one level's CSP into bitmask form.

    Tuple tables are shared across constraints with the same (carrier,
    color profile, per-position candidate lists) — in ``SDS^b`` almost all
    interior simplices of a given shape share one table, so compilation is
    much cheaper than one Δ scan per simplex.

    ``vertex_order`` overrides the default ``Vertex.sort_key`` variable
    numbering with an explicit permutation of the level's vertices.  The
    sharded kernel numbers variables in packed-vid discovery order (sort
    keys cannot be computed without materializing payloads), so differential
    suites pass the packed order here to make first-solution comparisons
    exact; production callers leave it ``None``.

    Without ``vertex_order`` the result is memoized per level object on the
    task (``task._compiled_levels``, weak-keyed, dropped with the task's
    other Δ-derived memos).  Levels come from the substrate memos, so every
    later query of the same (task, level, model) in this process reuses
    one compiled level.  That is sound because :func:`kernel_search` and
    :func:`root_domain_chunks` leave a :class:`CompiledLevel` as compiled:
    the only thing they write is its search-prologue memo
    (:func:`search_prologue`), whose entries are first-writer-wins
    immutable tuples that every later search reads unchanged.
    """
    memo = task._compiled_levels if vertex_order is None else None
    if memo is not None:
        compiled = memo.get(subdivision)
        if compiled is not None:
            return compiled
    if not _OBS.enabled:
        compiled = _compile_level_impl(subdivision, task, vertex_order)
    else:
        with _OBS.tracer.span(
            "kernel.compile", vertices=len(subdivision.complex.vertices)
        ) as span:
            compiled = _compile_level_impl(subdivision, task, vertex_order)
            span.set(
                constraints=len(compiled.con_vars), infeasible=compiled.infeasible
            )
            _OBS.metrics.counter("kernel.levels_compiled").inc()
    # First writer wins: threads compiling one level concurrently share one.
    return compiled if memo is None else memo.setdefault(subdivision, compiled)


def _compile_level_impl(
    subdivision: Subdivision,
    task: Task,
    vertex_order: list[Vertex] | None = None,
) -> CompiledLevel:
    complex_ = subdivision.complex
    if vertex_order is None:
        verts = sorted(complex_.vertices, key=Vertex.sort_key)
    else:
        if set(vertex_order) != complex_.vertices:
            raise ValueError("vertex_order must permute the level's vertices")
        verts = list(vertex_order)
    # Vertices are hash-consed (repro.topology.interning), so the instance in
    # a simplex is almost always the instance in ``verts`` — index by
    # identity to keep Vertex.__hash__ out of the per-simplex loop.  The
    # exception: a complex used across clear_intern_caches re-interns its
    # old faces, so a fresh simplex can hold an equal vertex of the older
    # generation; those fall back to a lookup by value.
    index = {id(v): i for i, v in enumerate(verts)}
    by_value: dict[Vertex, int] = {}
    cands: list[list[Vertex]] = []
    domains: list[int] = []
    vert_carrier: list = []  # vid -> carrier simplex (interned)
    for vertex in verts:
        carrier = subdivision.carrier(vertex)
        vert_carrier.append(carrier)
        candidates = task.candidate_decisions(carrier, vertex.color)
        cands.append(candidates)
        domains.append((1 << len(candidates)) - 1)
    incident: list[list[tuple[int, list[int]]]] = [[] for _ in verts]
    fc: list[list[tuple[int, list[int]]]] = [[] for _ in verts]
    neighbor_sets: list[set[int]] = [set() for _ in verts]
    compiled = CompiledLevel(
        verts, cands, domains, [], [], [], incident, fc, []
    )
    if not all(domains):
        compiled.infeasible = True
        return compiled

    cand_index = [{c: j for j, c in enumerate(cs)} for cs in cands]
    # (carrier, colors, per-position candidate-list ids) -> encoded table.
    # The cache lives on the task (satellite of clear_delta_caches): levels of
    # one solve share almost all their carrier/profile shapes, so compiling
    # level b reuses the tables level b-1 already encoded.  The id() key
    # components stay valid exactly as long as task._candidate_cache keeps the
    # candidate lists alive — both are dropped together by clear_delta_caches.
    table_cache: dict[tuple, tuple[list[list[int]], int, list[list[int]] | None]]
    table_cache = task._kernel_table_cache

    # Bound-method/local aliases: this loop visits every simplex of SDS^b.
    carrier_of = subdivision.carrier_of
    table_get = table_cache.get
    con_vars_append = compiled.con_vars.append
    con_masks_append = compiled.con_masks.append
    con_full_append = compiled.con_full.append
    # carrier_of(s) is the union of s's vertices' carriers, so it is a
    # function of the *set* of distinct vertex carriers; simplices deep
    # inside one base simplex all share a single carrier.  Simplices are
    # interned, so identity keys are sound and skip the per-simplex
    # set-union + base-membership check for all but one representative of
    # each distinct carrier combination.
    union_cache: dict[frozenset[int], Simplex] = {}
    # Packed-array fast path: orbit-built subdivisions expose per-vertex
    # carrier bitmasks over base ids, turning the union into integer ORs
    # with a memoized mask -> Simplex decode (same Simplex objects, so the
    # table cache keys and the constraint enumeration are unchanged).
    mask_table = subdivision._carrier_mask_table()
    if mask_table is not None:
        vertex_mask_of, decode_mask = mask_table
        vert_mask = [vertex_mask_of[v] for v in verts]
    else:
        vert_mask = None

    for dimension in range(1, complex_.dimension + 1):
        for simplex in complex_.simplices(dimension):
            vids_list = []
            colors_list = []
            key_list = []
            for v in simplex.sorted_vertices():
                try:
                    i = index[id(v)]
                except KeyError:
                    if not by_value:
                        by_value = {u: j for j, u in enumerate(verts)}
                    i = by_value[v]
                vids_list.append(i)
                colors_list.append(v.color)
                key_list.append(id(cands[i]))
            vids = tuple(vids_list)
            colors = tuple(colors_list)
            first_carrier = vert_carrier[vids_list[0]]
            for i in vids_list[1:]:
                if vert_carrier[i] is not first_carrier:
                    if vert_mask is not None:
                        mask = 0
                        for j in vids_list:
                            mask |= vert_mask[j]
                        carrier = decode_mask(mask)
                    else:
                        union_key = frozenset(id(vert_carrier[j]) for j in vids_list)
                        carrier = union_cache.get(union_key)
                        if carrier is None:
                            carrier = carrier_of(simplex)
                            union_cache[union_key] = carrier
                    break
            else:
                carrier = first_carrier
            cache_key = (carrier, colors, tuple(key_list))
            cached = table_get(cache_key)
            if cached is None:
                table = _tuple_table(task, carrier, colors, vids, cands, cand_index)
                cached = table_cache.setdefault(cache_key, table)
            masks, full, supports = cached
            if full == 0:
                # No allowed tuple projects into these domains: every total
                # assignment violates this constraint, so the level is UNSAT
                # outright (the naive search discovers the same by exhaustion).
                compiled.infeasible = True
                return compiled
            constraint = len(compiled.con_vars)
            con_vars_append(vids)
            con_masks_append(masks)
            con_full_append(full)
            for position, i in enumerate(vids):
                incident[i].append((constraint, masks[position]))
                neighbor_sets_i = neighbor_sets[i]
                for j in vids:
                    if j != i:
                        neighbor_sets_i.add(j)
            if supports is not None:
                fc[vids[0]].append((vids[1], supports[0]))
                fc[vids[1]].append((vids[0], supports[1]))
    compiled.neighbors = [sorted(s) for s in neighbor_sets]
    return compiled


def compile_level_packed(
    subdivision,
    task: Task,
    base,
    *,
    collapse: bool = True,
    vertex_chain: list[Vertex] | None = None,
    model=None,
):
    """Compile one level's CSP straight from packed tops — no object graph.

    ``subdivision`` is a :class:`~repro.topology.shards.ShardedSubdivision`
    (streamed one block at a time) or an in-RAM
    :class:`~repro.topology.compact.CompactSubdivision`.  The constraint set
    comes from the collapse census (:mod:`repro.topology.collapse`): with
    ``collapse`` the implied arity >= 3 faces are dropped, which leaves the
    solution set and the first solution unchanged (see the census contract);
    without it every face compiles, matching :func:`compile_level` face for
    face.  Variables are numbered by packed vid — the discovery order shared
    by both builders — and only the final-level *vertex chain* is ever
    materialized (for candidate decoding), never a simplex or a complex.

    ``model`` (a :class:`repro.models.Model`, ``None`` = iis) compiles the
    model's level from the model's own restricted store — the orbit-pruned
    builder already dropped every inadmissible run — with variables shrunk
    to :func:`repro.models.packed.model_variables` (renumbered densely,
    preserving vid order); any other store raises ``ValueError``.  An
    identity model takes this exact pre-model code path.

    Returns ``(compiled, collapse_report)``.
    """
    from repro.models.packed import model_variables
    from repro.topology.collapse import core_census, full_census, iter_tops_with_masks
    from repro.topology.compact import carrier_decoder, materialize_vertex_chain

    base_verts = sorted(base.vertices, key=Vertex.sort_key)
    if tuple(v.color for v in base_verts) != tuple(subdivision.base_colors):
        raise ValueError("base complex colors do not match the packed subdivision")
    if hasattr(subdivision, "iter_shards"):
        colors = subdivision.colors
        chain = vertex_chain or subdivision.vertex_chain(base_verts)
    else:
        colors = subdivision.levels[-1][0]
        chain = vertex_chain or materialize_vertex_chain(subdivision.levels, base_verts)
    carrier_masks = subdivision.carrier_masks
    n = len(carrier_masks)

    tops_stream = iter_tops_with_masks(subdivision)
    variables = model_variables(subdivision, model)
    if variables is not None:
        old2new = {vid: i for i, vid in enumerate(variables)}
        colors = [colors[vid] for vid in variables]
        carrier_masks = [carrier_masks[vid] for vid in variables]
        chain = [chain[vid] for vid in variables]
        n = len(variables)
        # old2new is monotone, so remapped tuples stay sorted.
        tops_stream = (
            (tuple(old2new[vid] for vid in top), mask) for top, mask in tops_stream
        )
    decode_mask = carrier_decoder(base, base_verts)

    # Domain classes: candidates are a function of (carrier mask, color), and
    # a level has only a handful of distinct classes, so the per-vid loop is
    # two dict probes.  Sharing the list object per class also shares the
    # table-cache identity keys with every other compile against this task.
    cands_by_class: dict[tuple[int, int], list[Vertex]] = {}
    index_by_class: dict[tuple[int, int], dict[Vertex, int]] = {}
    cands: list[list[Vertex]] = []
    cand_index: list[dict[Vertex, int]] = []
    domains: list[int] = []
    for vid in range(n):
        class_key = (carrier_masks[vid], colors[vid])
        candidates = cands_by_class.get(class_key)
        if candidates is None:
            candidates = task.candidate_decisions(decode_mask(class_key[0]), class_key[1])
            cands_by_class[class_key] = candidates
            index_by_class[class_key] = {c: j for j, c in enumerate(candidates)}
        cands.append(candidates)
        cand_index.append(index_by_class[class_key])
        domains.append((1 << len(candidates)) - 1)

    incident: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    fc: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    compiled = CompiledLevel(chain, cands, domains, [], [], [], incident, fc, [])

    census = core_census if collapse else full_census
    faces_by_arity, report = census(tops_stream, carrier_masks)
    if not all(domains):
        compiled.infeasible = True
        return compiled, report

    table_cache = task._kernel_table_cache
    table_get = table_cache.get
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    con_vars_append = compiled.con_vars.append
    con_masks_append = compiled.con_masks.append
    con_full_append = compiled.con_full.append
    for arity in sorted(faces_by_arity):
        for vids in faces_by_arity[arity]:
            union = 0
            for i in vids:
                union |= carrier_masks[i]
            carrier = decode_mask(union)
            colors_profile = tuple(colors[i] for i in vids)
            cache_key = (carrier, colors_profile, tuple(id(cands[i]) for i in vids))
            cached = table_get(cache_key)
            if cached is None:
                table = _tuple_table(
                    task, carrier, colors_profile, vids, cands, cand_index
                )
                cached = table_cache.setdefault(cache_key, table)
            masks, full, supports = cached
            if full == 0:
                compiled.infeasible = True
                return compiled, report
            constraint = len(compiled.con_vars)
            con_vars_append(vids)
            con_masks_append(masks)
            con_full_append(full)
            for position, i in enumerate(vids):
                incident[i].append((constraint, masks[position]))
                neighbor_sets_i = neighbor_sets[i]
                for j in vids:
                    if j != i:
                        neighbor_sets_i.add(j)
            if supports is not None:
                fc[vids[0]].append((vids[1], supports[0]))
                fc[vids[1]].append((vids[0], supports[1]))
    compiled.neighbors = [sorted(s) for s in neighbor_sets]
    if _OBS.enabled:
        _OBS.metrics.counter("kernel.sharded_compiles").inc()
    return compiled, report


def _ac3_bits(compiled: CompiledLevel, domains: list[int]) -> bool:
    """Arc consistency over the 2-ary constraints on bitmask domains.

    Computes the same (unique) arc-consistent fixpoint as the naive
    ``_ac3``; returns ``False`` when a domain empties.
    """
    fc = compiled.fc
    queue = list(range(len(domains)))
    queued = set(queue)
    while queue:
        u = queue.pop()
        queued.discard(u)
        for w, supports in fc[u]:
            du = domains[u]
            dw = domains[w]
            new = 0
            remaining = du
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                if supports[bit.bit_length() - 1] & dw:
                    new |= bit
            if new != du:
                domains[u] = new
                if not new:
                    return False
                if u not in queued:
                    queue.append(u)
                    queued.add(u)
                for neighbor, _sup in fc[u]:
                    if neighbor not in queued:
                        queue.append(neighbor)
                        queued.add(neighbor)
    return True


def _search_order(
    compiled: CompiledLevel, domains: list[int], adjacency: bool
) -> list[int]:
    """Assignment order, mirroring the naive heuristics exactly.

    With ``adjacency`` the frontier stays connected — seed with the most
    constrained vertex, grow by (most assigned neighbours, smallest
    domain, vertex order); otherwise sort by (domain size, vertex order).
    Vertex index order *is* ``Vertex.sort_key`` order by construction, so
    ties break identically to the naive search and the value/variable
    ordering (hence the first map found) is preserved.
    """
    n = len(domains)
    if not adjacency:
        return sorted(range(n), key=lambda i: (domains[i].bit_count(), i))
    neighbors = compiled.neighbors
    # Lazy-deletion heap replacing the O(n²) min-scan: a vertex's key
    # (-assigned neighbours, domain size, index) only ever *decreases* as the
    # frontier grows, so the smallest non-stale entry is the true minimum and
    # the selected sequence is identical to repeated min().
    sizes = [domain.bit_count() for domain in domains]
    assigned_neighbor_count = [0] * n
    heap = [(0, sizes[i], i) for i in range(n)]
    heapq.heapify(heap)
    placed = [False] * n
    order: list[int] = []
    while heap:
        negative_count, _size, best = heapq.heappop(heap)
        if placed[best] or negative_count != -assigned_neighbor_count[best]:
            continue
        placed[best] = True
        order.append(best)
        for neighbor in neighbors[best]:
            if not placed[neighbor]:
                assigned_neighbor_count[neighbor] += 1
                heapq.heappush(
                    heap, (-assigned_neighbor_count[neighbor], sizes[neighbor], neighbor)
                )
    return order


def search_prologue(
    compiled: CompiledLevel, arc_consistency: bool, adjacency_order: bool
) -> tuple[tuple[int, ...] | None, tuple[int, ...]]:
    """The level's AC-3 fixpoint domains and variable order, memoized.

    Returns ``(domains, order)``; ``domains`` is ``None`` when AC-3 alone
    refutes the level (``order`` is then empty).  Both depend only on the
    compiled level and the two options, so they are computed once per
    ``(arc_consistency, adjacency_order)`` and kept in
    ``compiled.prologues`` (first writer wins): :func:`kernel_search` and
    :func:`root_domain_chunks` start every later call from the stored
    tuples.  The memo lives and dies with the compiled level.  Callers
    handle ``compiled.infeasible`` first.
    """
    key = (arc_consistency, adjacency_order)
    prologue = compiled.prologues.get(key)
    if prologue is not None:
        return prologue
    domains = list(compiled.domains)
    if arc_consistency and not _ac3_bits(compiled, domains):
        prologue = (None, ())
    else:
        prologue = (
            tuple(domains),
            tuple(_search_order(compiled, domains, adjacency_order)),
        )
    if _OBS.enabled:
        _OBS.metrics.counter("kernel.search_prologues").inc()
    return compiled.prologues.setdefault(key, prologue)


def kernel_search(
    compiled: CompiledLevel,
    node_budget: int,
    *,
    arc_consistency: bool = True,
    forward_checking: bool = True,
    adjacency_order: bool = True,
    root_restrict: int | None = None,
) -> tuple[dict[Vertex, Vertex] | None, KernelStats]:
    """CBJ-FC search over a compiled level.

    Returns ``(mapping or None, stats)``; ``stats.exhausted`` is ``False``
    exactly when the node budget aborted the search, so ``None`` with
    ``exhausted=True`` is an exhaustive UNSAT certificate (for the
    ``root_restrict`` slice, when one is given).
    """
    if not _OBS.enabled:
        return _kernel_search_impl(
            compiled,
            node_budget,
            arc_consistency=arc_consistency,
            forward_checking=forward_checking,
            adjacency_order=adjacency_order,
            root_restrict=root_restrict,
        )
    with _OBS.tracer.span(
        "kernel.search",
        vertices=len(compiled.verts),
        constraints=len(compiled.con_vars),
    ) as span:
        with _OBS.profiler.profiled("kernel.search"):
            mapping, stats = _kernel_search_impl(
                compiled,
                node_budget,
                arc_consistency=arc_consistency,
                forward_checking=forward_checking,
                adjacency_order=adjacency_order,
                root_restrict=root_restrict,
            )
        span.set(
            satisfiable=mapping is not None,
            nodes=stats.nodes,
            exhausted=stats.exhausted,
        )
        metrics = _OBS.metrics
        metrics.counter("kernel.searches").inc()
        metrics.counter("kernel.nodes").inc(stats.nodes)
        metrics.counter("kernel.conflicts").inc(stats.conflicts)
        metrics.counter("kernel.backjumps").inc(stats.backjumps)
        metrics.counter("kernel.nogoods").inc(stats.nogoods)
        return mapping, stats


def _kernel_search_impl(
    compiled: CompiledLevel,
    node_budget: int,
    *,
    arc_consistency: bool = True,
    forward_checking: bool = True,
    adjacency_order: bool = True,
    root_restrict: int | None = None,
) -> tuple[dict[Vertex, Vertex] | None, KernelStats]:
    stats = KernelStats()
    if compiled.infeasible:
        return None, stats
    fixpoint, order = search_prologue(compiled, arc_consistency, adjacency_order)
    if fixpoint is None:
        return None, stats  # arc consistency alone refutes the level
    domains = list(fixpoint)
    n = len(order)
    if n == 0:
        return {}, stats

    con_vars = compiled.con_vars
    con_live = list(compiled.con_full)
    incident = compiled.incident
    fc = compiled.fc

    level_of = [-1] * n  # vertex -> level, -1 when unassigned
    chosen = [-1] * n  # vertex -> candidate index
    iter_masks = [0] * n  # per level: candidate bits not yet tried
    conf = [0] * n  # per level: conflict set (bitmask over earlier levels)
    trails: list[list[tuple[int, int, int]] | None] = [None] * n
    pruned_by = [0] * n  # vertex -> levels whose forward checking pruned it
    dead = [0] * n  # vertex -> unary nogoods (values in no solution)

    root = order[0]
    iter_masks[0] = domains[root] & (
        root_restrict if root_restrict is not None else ~0
    )
    nodes = 0
    solution: dict[Vertex, Vertex] | None = None
    depth = 0

    while True:
        vertex = order[depth]
        imask = iter_masks[depth]
        progressed = False
        while imask:
            bit = imask & -imask
            imask &= imask - 1
            candidate = bit.bit_length() - 1
            nodes += 1
            if nodes > node_budget:
                stats.exhausted = False
                stats.nodes = nodes
                return None, stats
            trail: list[tuple[int, int, int]] = []
            ok = True
            for constraint, row_masks in incident[vertex]:
                old = con_live[constraint]
                new = old & row_masks[candidate]
                if new == 0:
                    conflict_levels = 0
                    for member in con_vars[constraint]:
                        if member != vertex and level_of[member] >= 0:
                            conflict_levels |= 1 << level_of[member]
                    if conflict_levels == 0 and old == compiled.con_full[constraint]:
                        # Unsupported by every row regardless of context:
                        # record a unary nogood, never try this value again.
                        dead[vertex] |= bit
                        stats.nogoods += 1
                    conf[depth] |= conflict_levels
                    ok = False
                    break
                if new != old:
                    trail.append((0, constraint, old))
                    con_live[constraint] = new
            if ok and forward_checking:
                for neighbor, supports in fc[vertex]:
                    if level_of[neighbor] >= 0:
                        continue
                    old_domain = domains[neighbor]
                    new_domain = old_domain & supports[candidate]
                    if new_domain != old_domain:
                        trail.append((1, neighbor, old_domain))
                        domains[neighbor] = new_domain
                        trail.append((2, neighbor, pruned_by[neighbor]))
                        pruned_by[neighbor] |= 1 << depth
                        if new_domain == 0:
                            conf[depth] |= pruned_by[neighbor] & ~(1 << depth)
                            ok = False
                            break
            if not ok:
                stats.conflicts += 1
                for kind, target, old in reversed(trail):
                    if kind == 0:
                        con_live[target] = old
                    elif kind == 1:
                        domains[target] = old
                    else:
                        pruned_by[target] = old
                continue
            # Assignment accepted: descend.
            level_of[vertex] = depth
            chosen[vertex] = candidate
            trails[depth] = trail
            iter_masks[depth] = imask
            if depth + 1 == n:
                solution = compiled.decode([chosen[i] for i in range(n)])
                stats.nodes = nodes
                return solution, stats
            depth += 1
            next_vertex = order[depth]
            iter_masks[depth] = domains[next_vertex] & ~dead[next_vertex]
            conf[depth] = pruned_by[next_vertex]
            progressed = True
            break
        if progressed:
            continue
        # Level exhausted: conflict-directed backjump.
        iter_masks[depth] = 0
        conflict_set = conf[depth]
        if conflict_set == 0:
            # No earlier decision contributed to any failure here: the level
            # is unsatisfiable, exhaustively.
            stats.nodes = nodes
            return None, stats
        jump_to = conflict_set.bit_length() - 1
        conf[jump_to] |= conflict_set & ~(1 << jump_to)
        if jump_to < depth - 1:
            stats.backjumps += 1
        for level in range(depth - 1, jump_to - 1, -1):
            undone = order[level]
            for kind, target, old in reversed(trails[level]):
                if kind == 0:
                    con_live[target] = old
                elif kind == 1:
                    domains[target] = old
                else:
                    pruned_by[target] = old
            trails[level] = None
            level_of[undone] = -1
            chosen[undone] = -1
        depth = jump_to


def root_domain_chunks(
    compiled: CompiledLevel,
    *,
    arc_consistency: bool,
    adjacency_order: bool,
    n_chunks: int,
) -> list[int]:
    """Contiguous value-order slices of the first search variable's domain.

    Recomputed identically in every worker (compilation, AC-3, and the
    ordering heuristic are deterministic), so each worker can pick its slice
    by index alone.  Earlier chunks hold earlier values; scanning chunk
    verdicts in order therefore reproduces the serial first-found map.
    Reads the same :func:`search_prologue` as the search it slices.
    """
    if compiled.infeasible:
        return [0] * n_chunks
    domains, order = search_prologue(compiled, arc_consistency, adjacency_order)
    if domains is None:
        return [0] * n_chunks
    bits = []
    remaining = domains[order[0]]
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        bits.append(bit)
    chunks = [0] * n_chunks
    size, extra = divmod(len(bits), n_chunks)
    cursor = 0
    for chunk_index in range(n_chunks):
        take = size + (1 if chunk_index < extra else 0)
        for bit in bits[cursor : cursor + take]:
            chunks[chunk_index] |= bit
        cursor += take
    return chunks
