"""Array-native CSP kernel: numpy ``uint64`` masks over sharded ``SDS^b``.

The int kernel (:mod:`repro.core.csp_kernel`) spends almost all of its
sharded wall-clock in per-face Python loops: enumerating ~4M subset faces,
deduplicating them through dicts, and appending per-constraint structures
one tuple at a time.  This module compiles the *same* level — same face
census, same Δ-projection tables, same constraint order — as dense numpy
arrays instead:

* face enumeration and dedup are column selections plus ``np.unique`` over
  int32 row arrays (lexicographic row order == the int path's sorted-tuple
  order, so both backends produce bit-identical constraint sequences);
* carrier unions, domains, Δ-table row masks and forward-checking supports
  are ``uint64`` words; AC-3 runs as whole-array sweeps with vectorized
  popcount-style support tests;
* the CBJ-FC search keeps the int kernel's control flow (value order,
  variable order, conflict sets, nogoods — node-for-node identical, which
  the equivalence suite asserts down to the stats counters) but performs
  each node's constraint/forward-checking updates as a handful of sliced
  array operations instead of a Python loop over the vertex's incidences.

The word-oriented layout imposes hard limits — at most 64 base vertices
(carrier masks), 64 candidates per vertex (domain words) and 64 rows per
Δ-projection table (constraint liveness words).  Everything in the zoo and
the benchmarks fits; anything that does not raises
:class:`UnsupportedByArrayKernel` and the caller falls back to the int
backend, which has no such limits and doubles as the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.csp_kernel import KernelStats, _search_order, encode_rows
from repro.core.task import Task
from repro.obs import OBS as _OBS
from repro.topology.collapse import CollapseReport
from repro.topology.vertex import Vertex

_POW2 = (np.uint64(1) << np.arange(64, dtype=np.uint64)).astype(np.uint64)


class UnsupportedByArrayKernel(Exception):
    """The instance exceeds a 64-bit word limit; use the int backend."""


@dataclass(slots=True)
class ArrayLevel:
    """One compiled level in array form (see module docstring).

    Incidence and forward-checking tables are CSR by vertex; within a
    vertex, entries follow global constraint order — exactly the order the
    int kernel's per-vertex append loops produce.
    """

    verts: list[Vertex]
    cands: list[list[Vertex]]
    domains: np.ndarray  # uint64 [V] initial domain words
    con_pad: np.ndarray  # int32 [C, kmax] member vids, -1 padded
    con_arity: np.ndarray  # int32 [C]
    con_full: np.ndarray  # uint64 [C] all-rows words
    inc_indptr: np.ndarray  # int32 [V+1]
    inc_cid: np.ndarray  # int32 [E]
    inc_masks: np.ndarray  # uint64 [E, Cmax] row masks per own candidate
    fc_indptr: np.ndarray  # int32 [V+1]
    fc_nbr: np.ndarray  # int32 [F]
    fc_sup: np.ndarray  # uint64 [F, Cmax] neighbour supports per own candidate
    neighbors: list[list[int]] = field(default_factory=list)
    infeasible: bool = False

    def decode(self, assignment: list[int]) -> dict[Vertex, Vertex]:
        return {self.verts[i]: self.cands[i][a] for i, a in enumerate(assignment)}


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise UnsupportedByArrayKernel(what)


def _np_i32(buffer) -> np.ndarray:
    return np.frombuffer(buffer, dtype=np.int32)


def _sorted_unique_rows(
    rows: np.ndarray, flags: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Lexicographically sorted unique rows, with optional OR-fold of flags.

    ``np.unique(axis=0)`` sorts rows through a void view — an order of
    magnitude slower than scalar sorts on these sizes — so rows are packed
    into single ``uint64`` keys (radix-sortable) whenever the bit budget
    allows, with an ``np.lexsort`` fallback for wide rows.  Packed-key order
    equals row lexicographic order, which is the kernel's canonical
    constraint order.
    """
    n, a = rows.shape
    if n == 0:
        return rows, (np.zeros(0, dtype=bool) if flags is not None else None)
    width = max(1, int(rows.max()).bit_length())
    if a * width <= 64:
        shift = np.uint64(width)
        key = rows[:, 0].astype(np.uint64)
        for col in range(1, a):
            key = (key << shift) | rows[:, col].astype(np.uint64)
        if flags is None:
            uniq_keys = np.unique(key)
            agg = None
        else:
            order = np.argsort(key, kind="stable")
            sorted_keys = key[order]
            keep = np.empty(n, dtype=bool)
            keep[0] = True
            keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
            uniq_keys = sorted_keys[keep]
            agg = np.maximum.reduceat(
                flags[order].astype(np.uint8), np.flatnonzero(keep)
            ).astype(bool)
        out = np.empty((len(uniq_keys), a), dtype=np.int32)
        mask = np.uint64((1 << width) - 1)
        remaining = uniq_keys
        for col in range(a - 1, -1, -1):
            out[:, col] = (remaining & mask).astype(np.int32)
            remaining = remaining >> shift
        return out, agg
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    uniq = srt[keep]
    if flags is None:
        return uniq, None
    agg = np.maximum.reduceat(
        flags[order].astype(np.uint8), np.flatnonzero(keep)
    ).astype(bool)
    return uniq, agg


def _group_columns(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group rows given as columns: ``(group_of_row, representative_rows)``.

    Group identity only (the caller reads the grouped values back through a
    representative row index), so narrow columns pack into one key and wide
    ones fall back to lexsort — either way no row matrix is materialized.
    """
    n = len(cols[0])
    widths = [max(1, int(col.max()).bit_length()) for col in cols]
    if sum(widths) <= 64:
        key = cols[0].astype(np.uint64)
        for col, width in zip(cols[1:], widths[1:]):
            key = (key << np.uint64(width)) | col.astype(np.uint64)
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = sorted_keys[1:] != sorted_keys[:-1]
    else:
        order = np.lexsort(tuple(reversed(cols)))
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = False
        for col in cols:
            srt = col[order]
            keep[1:] |= srt[1:] != srt[:-1]
    group_sorted = np.cumsum(keep) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group_sorted
    representatives = order[np.flatnonzero(keep)]
    return inverse, representatives


def census_arrays(
    subdivision, vertex_masks, *, collapse: bool = True, renumber=None
) -> tuple[dict[int, np.ndarray], CollapseReport]:
    """The face census as int32 row arrays — numpy twin of ``core_census``.

    Streams shard blocks (or walks a compact build), extracts faces as
    column selections over the top rows, and resolves the implied-face rule
    with one global ``np.unique``/aggregate pass, so dropping a face
    requires agreement with *every* containing top exactly as in the int
    census.  Output rows per arity are lexicographically sorted and
    deduplicated; the differential suite pins equality with the Python
    census tuple-for-tuple.

    ``renumber`` (an int32 lookup array over *stored* vids, see
    :func:`renumbering`) remaps every row into a model level's variable
    numbering; it is monotone on the variables, so sorted-row order is
    preserved.  ``vertex_masks`` is indexed by the *renumbered* ids.
    """
    from repro.topology.collapse import iter_tops_with_masks

    _require(len(subdivision.base_colors) <= 64, "more than 64 base vertices")
    cm64 = np.array([int(m) for m in vertex_masks], dtype=np.uint64)

    if hasattr(subdivision, "iter_shards"):
        parts = census_parts_for_blocks(
            subdivision.iter_shards(),
            cm64,
            collapse=collapse,
            renumber=renumber,
        )
    else:
        parts = _CensusParts()
        by_size: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for top, mask in iter_tops_with_masks(subdivision):
            by_size.setdefault(len(top), []).append((top, mask))
        for k, pairs in sorted(by_size.items()):
            if k < 2:
                continue
            rows = np.array([pair[0] for pair in pairs], dtype=np.int32)
            if renumber is not None:
                rows = renumber[rows]
            union = np.array([int(pair[1]) for pair in pairs], dtype=np.uint64)
            parts.visit(rows, union, cm64, collapse)
    return merge_census_parts([parts])


class _CensusParts:
    """Partial face census of a set of top blocks, pre-merge.

    Plain per-arity array lists plus the enumeration count — picklable, so
    shard-parallel censuses ship their parts back from worker processes and
    :func:`merge_census_parts` folds them.  The global sort/unique/OR-fold
    in the merge is order-independent, so any partition of the blocks over
    any number of workers merges to the bit-identical census.
    """

    __slots__ = ("edge_parts", "top_parts", "proper_rows", "proper_flags", "enumerated")

    def __init__(self):
        self.edge_parts: list[np.ndarray] = []
        self.top_parts: dict[int, list[np.ndarray]] = {}
        self.proper_rows: dict[int, list[np.ndarray]] = {}
        self.proper_flags: dict[int, list[np.ndarray]] = {}
        self.enumerated = 0

    def visit(
        self, tops_k: np.ndarray, union_k: np.ndarray, cm64: np.ndarray, collapse: bool
    ) -> None:
        from itertools import combinations

        k = tops_k.shape[1]
        self.top_parts.setdefault(k, []).append(tops_k)
        self.enumerated += tops_k.shape[0]
        for arity in range(2, k):
            for sel in combinations(range(k), arity):
                rows = tops_k[:, sel]
                self.enumerated += rows.shape[0]
                if arity == 2:
                    self.edge_parts.append(rows)
                    continue
                if collapse:
                    mask = cm64[rows[:, 0]]
                    for col in range(1, arity):
                        mask = mask | cm64[rows[:, col]]
                    flags = mask == union_k
                else:
                    flags = np.zeros(rows.shape[0], dtype=bool)
                self.proper_rows.setdefault(arity, []).append(rows)
                self.proper_flags.setdefault(arity, []).append(flags)


def renumbering(variables: list[int], n: int) -> np.ndarray:
    """int32 lookup from ``n`` stored vids to a model level's variable
    numbering (:func:`repro.models.packed.model_variables`; -1 off it)."""
    renumber = np.full(n, -1, dtype=np.int32)
    renumber[variables] = np.arange(len(variables), dtype=np.int32)
    return renumber


def census_parts_for_blocks(
    blocks, cm64: np.ndarray, *, collapse: bool = True, renumber=None
) -> _CensusParts:
    """Face-census parts of an iterable of shard blocks (see ``census_arrays``)."""
    parts = _CensusParts()
    for block in blocks:
        indptr = _np_i32(block.top_indptr)
        indices = _np_i32(block.top_indices)
        lengths = np.diff(indptr)
        union = np.array([int(m) for m in block.union_masks], dtype=np.uint64)
        for k in np.unique(lengths):
            k = int(k)
            if k < 2:
                continue
            sel = np.flatnonzero(lengths == k)
            starts = indptr[sel]
            rows = indices[starts[:, None] + np.arange(k, dtype=np.int32)]
            if renumber is not None:
                rows = renumber[rows]
            parts.visit(rows, union[sel], cm64, collapse)
    return parts


def merge_census_parts(
    parts_list: list[_CensusParts],
) -> tuple[dict[int, np.ndarray], CollapseReport]:
    """Fold census parts into the final ``(faces_by_arity, report)``.

    The dedup and the implied-flag OR-fold are global across all parts, so
    dropping a face still requires agreement with *every* containing top,
    wherever its blocks were processed.
    """
    edge_parts: list[np.ndarray] = []
    top_parts: dict[int, list[np.ndarray]] = {}
    proper_rows: dict[int, list[np.ndarray]] = {}
    proper_flags: dict[int, list[np.ndarray]] = {}
    enumerated = 0
    for parts in parts_list:
        edge_parts.extend(parts.edge_parts)
        enumerated += parts.enumerated
        for k, chunks in parts.top_parts.items():
            top_parts.setdefault(k, []).extend(chunks)
        for arity, chunks in parts.proper_rows.items():
            proper_rows.setdefault(arity, []).extend(chunks)
            proper_flags.setdefault(arity, []).extend(parts.proper_flags[arity])

    faces_by_arity: dict[int, np.ndarray] = {}
    dropped = 0
    if edge_parts:
        faces_by_arity[2], _ = _sorted_unique_rows(np.vstack(edge_parts))
    for arity, parts in proper_rows.items():
        rows = np.vstack(parts)
        flags = np.concatenate(proper_flags[arity])
        uniq, implied = _sorted_unique_rows(rows, flags)
        kept = uniq[~implied]
        dropped += int(implied.sum())
        if arity in faces_by_arity:
            merged = np.vstack([faces_by_arity[arity], kept])
            faces_by_arity[arity], _ = _sorted_unique_rows(merged)
        else:
            faces_by_arity[arity] = kept
    for k, parts in top_parts.items():
        if k < 2:
            continue
        tops, _ = _sorted_unique_rows(np.vstack(parts))
        if k in faces_by_arity:
            merged = np.vstack([faces_by_arity[k], tops])
            faces_by_arity[k], _ = _sorted_unique_rows(merged)
        else:
            faces_by_arity[k] = tops
    unique = sum(len(rows) for rows in faces_by_arity.values()) + dropped
    report = CollapseReport(enumerated, unique, unique - dropped, dropped)
    if _OBS.enabled:
        _OBS.metrics.gauge("kernel.collapse.dropped_ratio").set(report.dropped_ratio)
    return faces_by_arity, report


def compile_arrays(
    subdivision,
    task: Task,
    base,
    *,
    collapse: bool = True,
    vertex_chain: list[Vertex] | None = None,
    model=None,
    census: tuple[dict[int, np.ndarray], CollapseReport] | None = None,
) -> tuple[ArrayLevel, CollapseReport]:
    """Compile a packed/sharded level into :class:`ArrayLevel` form.

    Bit-compatible with :func:`repro.core.csp_kernel.compile_level_packed`
    under the same ``collapse`` flag: same variables (packed vids), same
    candidate order, same constraint census and order, same table rows —
    only the container is arrays instead of per-constraint Python lists.

    ``model`` (non-identity) compiles the model's level from its own
    restricted store, whose tops already are the admitted runs, so the
    census stays fully vectorized; any other store raises ``ValueError``.
    Variables shrink to :func:`repro.models.packed.model_variables` exactly
    as in the int kernel, so verdict, first map and statistics stay
    backend-identical.
    """
    from repro.models.packed import model_variables
    from repro.topology.compact import carrier_decoder, materialize_vertex_chain

    base_verts = sorted(base.vertices, key=Vertex.sort_key)
    if tuple(v.color for v in base_verts) != tuple(subdivision.base_colors):
        raise ValueError("base complex colors do not match the packed subdivision")
    _require(len(base_verts) <= 64, "more than 64 base vertices")
    if hasattr(subdivision, "iter_shards"):
        colors_seq = subdivision.colors
        chain = vertex_chain or subdivision.vertex_chain(base_verts)
    else:
        colors_seq = subdivision.levels[-1][0]
        chain = vertex_chain or materialize_vertex_chain(subdivision.levels, base_verts)
    carrier_masks = subdivision.carrier_masks
    n = len(carrier_masks)
    variables = model_variables(subdivision, model)
    renumber = None
    if variables is not None:
        renumber = renumbering(variables, n)
        colors_seq = [colors_seq[vid] for vid in variables]
        carrier_masks = [carrier_masks[vid] for vid in variables]
        chain = [chain[vid] for vid in variables]
        n = len(variables)
    _require(all(mask < (1 << 64) for mask in carrier_masks), "carrier mask width")
    cm64 = np.array([int(m) for m in carrier_masks], dtype=np.uint64)
    colors = np.array(colors_seq, dtype=np.int32)
    decode_mask = carrier_decoder(base, base_verts)

    # Domain classes: (carrier mask, color) determines the candidate list.
    class_rows = np.empty((n, 2), dtype=np.uint64)
    class_rows[:, 0] = cm64
    class_rows[:, 1] = colors.astype(np.uint64)
    class_keys, class_of = np.unique(class_rows, axis=0, return_inverse=True)
    class_of = class_of.astype(np.int32)
    class_cands: list[list[Vertex]] = []
    class_index: list[dict[Vertex, int]] = []
    for mask, color in class_keys:
        candidates = task.candidate_decisions(decode_mask(int(mask)), int(color))
        _require(len(candidates) <= 64, "more than 64 candidates per vertex")
        class_cands.append(candidates)
        class_index.append({c: j for j, c in enumerate(candidates)})
    class_sizes = np.array([len(c) for c in class_cands], dtype=np.int64)
    cmax = int(class_sizes.max()) if len(class_sizes) else 1
    domain_words = np.array(
        [(1 << int(size)) - 1 for size in class_sizes], dtype=np.uint64
    )
    domains = domain_words[class_of]
    cands = [class_cands[c] for c in class_of]

    if census is not None:
        # Precomputed (e.g. shard-parallel) census: already in the covered
        # numbering, bit-identical to the serial one by the merge contract.
        faces_by_arity, report = census
    else:
        faces_by_arity, report = census_arrays(
            subdivision, carrier_masks, collapse=collapse, renumber=renumber
        )
    level = ArrayLevel(
        chain,
        cands,
        domains,
        np.empty((0, 0), np.int32),
        np.empty(0, np.int32),
        np.empty(0, np.uint64),
        np.zeros(n + 1, np.int32),
        np.empty(0, np.int32),
        np.empty((0, cmax), np.uint64),
        np.zeros(n + 1, np.int32),
        np.empty(0, np.int32),
        np.empty((0, cmax), np.uint64),
    )
    if not np.all(domains):
        level.infeasible = True
        return level, report

    kmax = max(faces_by_arity) if faces_by_arity else 2
    table_masks_parts: list[np.ndarray] = []  # per table: [kmax, cmax] uint64
    table_full: list[int] = []
    table_sup: dict[int, np.ndarray] = {}  # 2-ary table id -> [2, cmax]
    con_pad_parts: list[np.ndarray] = []
    con_arity_parts: list[np.ndarray] = []
    con_table_parts: list[np.ndarray] = []
    inc_vid_parts: list[np.ndarray] = []
    inc_cid_parts: list[np.ndarray] = []
    inc_tbl_parts: list[np.ndarray] = []
    inc_pos_parts: list[np.ndarray] = []
    fc_vid = fc_nbr_arr = fc_tbl = fc_ori = None
    constraint_base = 0

    for arity in sorted(faces_by_arity):
        group = faces_by_arity[arity]
        if group.size == 0:
            continue
        count = group.shape[0]
        union = cm64[group[:, 0]]
        for col in range(1, arity):
            union = union | cm64[group[:, col]]
        # Group faces sharing (carrier union, per-position domain class) —
        # exactly one Δ-projection table per group.  The union column is
        # compressed to small indices first so grouping stays on packed keys.
        _, union_index = np.unique(union, return_inverse=True)
        group_classes = class_of[group]
        table_local, representatives = _group_columns(
            [union_index.ravel().astype(np.int64)]
            + [group_classes[:, col].astype(np.int64) for col in range(arity)]
        )
        local_ids = np.empty(len(representatives), dtype=np.int32)
        for local, representative in enumerate(representatives):
            carrier = decode_mask(int(union[representative]))
            classes = [int(c) for c in group_classes[representative]]
            colors_profile = tuple(int(class_keys[c][1]) for c in classes)
            rows = encode_rows(
                task, carrier, colors_profile, [class_index[c] for c in classes]
            )
            _require(len(rows) <= 64, "more than 64 Δ-projection rows")
            if not rows:
                level.infeasible = True
                return level, report
            masks = np.zeros((kmax, cmax), dtype=np.uint64)
            for row_number, row in enumerate(rows):
                bit = np.uint64(1 << row_number)
                for position, j in enumerate(row):
                    masks[position, j] |= bit
            table_id = len(table_full)
            table_masks_parts.append(masks)
            table_full.append((1 << len(rows)) - 1)
            if arity == 2:
                sup = np.zeros((2, cmax), dtype=np.uint64)
                for a, b in rows:
                    sup[0, a] |= np.uint64(1 << b)
                    sup[1, b] |= np.uint64(1 << a)
                table_sup[table_id] = sup
            local_ids[local] = table_id
        tables_of_group = local_ids[table_local]
        cids = np.arange(constraint_base, constraint_base + count, dtype=np.int32)
        pad = np.full((count, kmax), -1, dtype=np.int32)
        pad[:, :arity] = group
        con_pad_parts.append(pad)
        con_arity_parts.append(np.full(count, arity, dtype=np.int32))
        con_table_parts.append(tables_of_group.astype(np.int32))
        inc_vid_parts.append(group.ravel())
        inc_cid_parts.append(np.repeat(cids, arity))
        inc_tbl_parts.append(np.repeat(tables_of_group, arity).astype(np.int32))
        inc_pos_parts.append(np.tile(np.arange(arity, dtype=np.int32), count))
        if arity == 2:
            # Interleaved (u -> w, w -> u) per edge: the int kernel appends
            # both directions while visiting the edge, so per-vertex forward
            # checking order is edge order.
            fc_vid = np.empty(2 * count, dtype=np.int32)
            fc_nbr_arr = np.empty(2 * count, dtype=np.int32)
            fc_tbl = np.empty(2 * count, dtype=np.int32)
            fc_ori = np.empty(2 * count, dtype=np.int32)
            fc_vid[0::2] = group[:, 0]
            fc_vid[1::2] = group[:, 1]
            fc_nbr_arr[0::2] = group[:, 1]
            fc_nbr_arr[1::2] = group[:, 0]
            fc_tbl[0::2] = tables_of_group
            fc_tbl[1::2] = tables_of_group
            fc_ori[0::2] = 0
            fc_ori[1::2] = 1
        constraint_base += count

    table_masks = (
        np.stack(table_masks_parts)
        if table_masks_parts
        else np.zeros((0, kmax, cmax), np.uint64)
    )
    level.con_pad = (
        np.vstack(con_pad_parts) if con_pad_parts else np.empty((0, kmax), np.int32)
    )
    level.con_arity = (
        np.concatenate(con_arity_parts) if con_arity_parts else np.empty(0, np.int32)
    )
    con_table = (
        np.concatenate(con_table_parts) if con_table_parts else np.empty(0, np.int32)
    )
    level.con_full = np.array(table_full, dtype=np.uint64)[con_table] if len(
        con_table
    ) else np.empty(0, np.uint64)

    if inc_vid_parts:
        inc_vid = np.concatenate(inc_vid_parts)
        inc_cid = np.concatenate(inc_cid_parts)
        inc_tbl = np.concatenate(inc_tbl_parts)
        inc_pos = np.concatenate(inc_pos_parts)
        order = np.argsort(inc_vid, kind="stable")
        inc_vid = inc_vid[order]
        level.inc_cid = inc_cid[order]
        level.inc_masks = table_masks[inc_tbl[order], inc_pos[order]]
        level.inc_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(inc_vid, minlength=n), out=level.inc_indptr[1:])

    if fc_vid is not None:
        sup_all = np.zeros((len(table_full), 2, cmax), dtype=np.uint64)
        for table_id, sup in table_sup.items():
            sup_all[table_id] = sup
        order = np.argsort(fc_vid, kind="stable")
        fc_vid_sorted = fc_vid[order]
        level.fc_nbr = fc_nbr_arr[order]
        level.fc_sup = sup_all[fc_tbl[order], fc_ori[order]]
        level.fc_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(fc_vid_sorted, minlength=n), out=level.fc_indptr[1:])

    # Neighbor sets come from the 2-ary census alone: every pair inside any
    # kept face co-occurs in some top, and the census keeps *all* pairs of
    # every top, so the edge list already is the full constraint adjacency.
    edges = faces_by_arity.get(2)
    if edges is not None and edges.size:
        pairs = np.concatenate([edges, edges[:, ::-1]])
        pairs, _ = _sorted_unique_rows(pairs)
        counts = np.bincount(pairs[:, 0], minlength=n)
        splits = np.cumsum(counts)[:-1]
        level.neighbors = [part.tolist() for part in np.split(pairs[:, 1], splits)]
    else:
        level.neighbors = [[] for _ in range(n)]
    if _OBS.enabled:
        _OBS.metrics.counter("kernel.array_compiles").inc()
    return level, report


def _ac3_arrays(level: ArrayLevel, dom: np.ndarray) -> bool:
    """Whole-array AC-3 sweeps to the (unique) arc-consistent fixpoint.

    Chaotic iteration converges to the same fixpoint as the int kernel's
    worklist AC-3; returns ``False`` when a domain empties.
    """
    if len(level.fc_nbr) == 0:
        return True
    fc_vid = np.repeat(
        np.arange(len(dom), dtype=np.int64), np.diff(level.fc_indptr)
    )
    cmax = level.fc_sup.shape[1]
    pow2 = _POW2[:cmax]
    while True:
        alive = (level.fc_sup & dom[level.fc_nbr][:, None]) != 0
        bits = (alive.astype(np.uint64) * pow2[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        acc = np.full(len(dom), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        np.bitwise_and.at(acc, fc_vid, bits)
        new = dom & acc
        if np.array_equal(new, dom):
            return True
        dom[:] = new
        if not np.all(dom[np.unique(fc_vid)] != 0):
            return False


def array_search(
    level: ArrayLevel,
    node_budget: int,
    *,
    arc_consistency: bool = True,
    forward_checking: bool = True,
    adjacency_order: bool = True,
    root_restrict: int | None = None,
) -> tuple[dict[Vertex, Vertex] | None, KernelStats]:
    """CBJ-FC search over an :class:`ArrayLevel` — the int search, array-stepped.

    Control flow (value order, variable order, conflict sets, backjumps,
    nogoods, budget handling) mirrors ``_kernel_search_impl`` decision for
    decision; each node's constraint and forward-checking updates run as
    sliced array operations.  On equal inputs the two searches agree on the
    verdict, the first mapping *and* every stats counter.
    """
    stats = KernelStats()
    if level.infeasible:
        return None, stats
    dom = level.domains.copy()
    if arc_consistency and not _ac3_arrays(level, dom):
        return None, stats
    domains_int = [int(d) for d in dom]
    order = _search_order(level, domains_int, adjacency_order)
    n = len(order)
    if n == 0:
        return {}, stats

    con_pad = level.con_pad
    con_arity = level.con_arity
    con_full = level.con_full
    con_live = con_full.copy()
    inc_indptr = level.inc_indptr
    inc_cid = level.inc_cid
    inc_masks = level.inc_masks
    fc_indptr = level.fc_indptr
    fc_nbr = level.fc_nbr
    fc_sup = level.fc_sup

    level_of = [-1] * n
    chosen = [-1] * n
    unassigned = np.ones(n, dtype=bool)
    iter_masks = [0] * n
    conf = [0] * n
    trails: list[tuple | None] = [None] * n
    pruned_by = [0] * n
    dead = [0] * n

    root = order[0]
    iter_masks[0] = domains_int[root] & (
        root_restrict if root_restrict is not None else ~0
    )
    nodes = 0
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
            lo, hi = inc_indptr[vertex], inc_indptr[vertex + 1]
            cids = inc_cid[lo:hi]
            old = con_live[cids]
            new = old & inc_masks[lo:hi, candidate]
            zero = new == 0
            if zero.any():
                first = int(np.argmax(zero))
                constraint = int(cids[first])
                conflict_levels = 0
                for member in con_pad[constraint, : con_arity[constraint]].tolist():
                    if member != vertex and level_of[member] >= 0:
                        conflict_levels |= 1 << level_of[member]
                if conflict_levels == 0 and int(old[first]) == int(
                    con_full[constraint]
                ):
                    dead[vertex] |= bit
                    stats.nogoods += 1
                conf[depth] |= conflict_levels
                stats.conflicts += 1
                continue
            changed = new != old
            ccids = cids[changed]
            colds = old[changed]
            con_live[ccids] = new[changed]
            fchanged_nbrs = fc_nbr[0:0]
            folds = dom[0:0]
            fprunes: list[int] = []
            if forward_checking:
                flo, fhi = fc_indptr[vertex], fc_indptr[vertex + 1]
                nbrs = fc_nbr[flo:fhi]
                nbr_old = dom[nbrs]
                nbr_new = nbr_old & fc_sup[flo:fhi, candidate]
                fchanged = unassigned[nbrs] & (nbr_new != nbr_old)
                emptied = fchanged & (nbr_new == 0)
                if emptied.any():
                    neighbor = int(nbrs[int(np.argmax(emptied))])
                    conf[depth] |= pruned_by[neighbor] & ~(1 << depth)
                    con_live[ccids] = colds
                    stats.conflicts += 1
                    continue
                fchanged_nbrs = nbrs[fchanged]
                folds = nbr_old[fchanged]
                dom[fchanged_nbrs] = nbr_new[fchanged]
                depth_bit = 1 << depth
                for neighbor in fchanged_nbrs.tolist():
                    fprunes.append(pruned_by[neighbor])
                    pruned_by[neighbor] |= depth_bit
            level_of[vertex] = depth
            chosen[vertex] = candidate
            unassigned[vertex] = False
            trails[depth] = (ccids, colds, fchanged_nbrs, folds, fprunes)
            iter_masks[depth] = imask
            if depth + 1 == n:
                stats.nodes = nodes
                return level.decode([chosen[i] for i in range(n)]), stats
            depth += 1
            next_vertex = order[depth]
            iter_masks[depth] = int(dom[next_vertex]) & ~dead[next_vertex]
            conf[depth] = pruned_by[next_vertex]
            progressed = True
            break
        if progressed:
            continue
        iter_masks[depth] = 0
        conflict_set = conf[depth]
        if conflict_set == 0:
            stats.nodes = nodes
            return None, stats
        jump_to = conflict_set.bit_length() - 1
        conf[jump_to] |= conflict_set & ~(1 << jump_to)
        if jump_to < depth - 1:
            stats.backjumps += 1
        for undo_level in range(depth - 1, jump_to - 1, -1):
            undone = order[undo_level]
            ccids, colds, fnbrs, folds, fprunes = trails[undo_level]
            con_live[ccids] = colds
            dom[fnbrs] = folds
            for neighbor, previous in zip(fnbrs.tolist(), fprunes):
                pruned_by[neighbor] = previous
            trails[undo_level] = None
            level_of[undone] = -1
            chosen[undone] = -1
            unassigned[undone] = True
        depth = jump_to
