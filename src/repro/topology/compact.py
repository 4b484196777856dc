"""Array-backed complexes and the packed orbit ``SDS^b`` builder.

Two structure-of-arrays representations back the symmetry-reduced engine:

* :class:`CompactComplex` — a frozen int32 image of a
  :class:`~repro.topology.complex.SimplicialComplex`: vertices renumbered to
  dense ids in the library-wide sort order, tops stored as a CSR table,
  per-top color bitmasks, and a CSR star index.  ``freeze``/``thaw`` are
  exact inverses (the round-trip property suite pins color, carrier and
  star-index agreement).

* :class:`CompactSubdivision` — ``SDS^b(base)`` as *pure integers*: per-round
  levels of ``(colors, views)`` where a view is a tuple of previous-level
  vertex ids, final tops as id tuples, and per-vertex carriers as bitmasks
  over base vertex ids.  Nothing in it references a payload or an interned
  object, which is what makes it safe to persist across processes
  (:mod:`repro.topology.sds_cache`) and to re-anchor onto *any* base complex
  with the same color/top structure: :func:`materialize` rebuilds the exact
  object graph the naive builder would produce, against the caller's actual
  base vertices.

:func:`build_sds_packed` is the orbit builder (see
:mod:`repro.topology.orbits`): per top simplex it extracts the distinct
snapshot prefixes once, interns the ``(member, prefix)`` local pairs through
one global per-round dedup dict — which performs the gluing along shared
faces automatically — and emits all Fubini(k) maximal simplices via
precompiled template getters.  No ordered-partition enumeration ever runs
per simplex.
"""

from __future__ import annotations

import gc
from array import array
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from repro.obs import OBS as _OBS
from repro.topology.complex import SimplicialComplex
from repro.topology.orbits import RoundPlan, packed_tables
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex


def _sorted_vertex_ids(complex_: SimplicialComplex) -> tuple[list[Vertex], dict[Vertex, int]]:
    ordered = sorted(complex_.vertices, key=Vertex.sort_key)
    return ordered, {vertex: i for i, vertex in enumerate(ordered)}


class CompactComplex:
    """A frozen structure-of-arrays image of a simplicial complex.

    ``vertices`` keeps the actual interned :class:`Vertex` objects (the SoA
    is an in-memory index, not a serialization format); everything else is
    dense integer data: per-vertex colors, a CSR table of top simplices, a
    per-top color bitmask, and a lazily built CSR star index (vertex id ->
    incident top ids).
    """

    __slots__ = (
        "vertices",
        "colors",
        "top_indptr",
        "top_indices",
        "color_masks",
        "_star_indptr",
        "_star_indices",
    )

    def __init__(
        self,
        vertices: tuple[Vertex, ...],
        colors: array,
        top_indptr: array,
        top_indices: array,
        color_masks: tuple[int, ...],
    ):
        self.vertices = vertices
        self.colors = colors
        self.top_indptr = top_indptr
        self.top_indices = top_indices
        self.color_masks = color_masks
        self._star_indptr: array | None = None
        self._star_indices: array | None = None

    @classmethod
    def freeze(cls, complex_: SimplicialComplex) -> "CompactComplex":
        """Pack a complex into the array form (deterministic vid order)."""
        ordered, vid = _sorted_vertex_ids(complex_)
        colors = array("i", (vertex.color for vertex in ordered))
        tops = sorted(
            tuple(sorted(vid[vertex] for vertex in maximal))
            for maximal in complex_.maximal_simplices
        )
        indptr = array("i", [0])
        indices = array("i")
        masks = []
        for top in tops:
            indices.extend(top)
            indptr.append(len(indices))
            mask = 0
            for i in top:
                mask |= 1 << colors[i]
            masks.append(mask)
        return cls(tuple(ordered), colors, indptr, indices, tuple(masks))

    # -- queries -------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def top_count(self) -> int:
        return len(self.top_indptr) - 1

    @property
    def dimension(self) -> int:
        indptr = self.top_indptr
        return max(indptr[t + 1] - indptr[t] for t in range(self.top_count)) - 1

    def top(self, t: int) -> tuple[int, ...]:
        """The ``t``-th top simplex as a sorted tuple of vertex ids."""
        return tuple(self.top_indices[self.top_indptr[t] : self.top_indptr[t + 1]])

    def tops(self) -> Iterator[tuple[int, ...]]:
        for t in range(self.top_count):
            yield self.top(t)

    def _build_star(self) -> None:
        counts = array("i", bytes(4 * self.vertex_count))
        for i in self.top_indices:
            counts[i] += 1
        indptr = array("i", [0])
        for c in counts:
            indptr.append(indptr[-1] + c)
        cursor = array("i", indptr[:-1])
        indices = array("i", bytes(4 * len(self.top_indices)))
        for t in range(self.top_count):
            for i in self.top_indices[self.top_indptr[t] : self.top_indptr[t + 1]]:
                indices[cursor[i]] = t
                cursor[i] += 1
        self._star_indptr = indptr
        self._star_indices = indices

    def star(self, vertex_id: int) -> tuple[int, ...]:
        """Ids of the top simplices incident to ``vertex_id`` (CSR index)."""
        if self._star_indptr is None:
            self._build_star()
        start = self._star_indptr[vertex_id]
        stop = self._star_indptr[vertex_id + 1]
        return tuple(self._star_indices[start:stop])

    # -- thaw ----------------------------------------------------------------

    def thaw(self) -> SimplicialComplex:
        """The exact complex this was frozen from (trusted reconstruction)."""
        vertices = self.vertices
        simplex_intern = Simplex._intern_trusted
        maximal = frozenset(
            simplex_intern(frozenset(map(vertices.__getitem__, top)))
            for top in self.tops()
        )
        dimension = max(len(simplex) for simplex in maximal) - 1
        return SimplicialComplex._from_parts_trusted(
            maximal, frozenset(vertices), dimension
        )

    def __repr__(self) -> str:
        return (
            f"CompactComplex(vertices={self.vertex_count}, "
            f"tops={self.top_count})"
        )


class CompactSubdivision:
    """``SDS^b`` of a packed chromatic base, as pure integer tables.

    Fields
    ------
    base_colors:
        Color per base vertex id (ids are ``Vertex.sort_key`` order).
    base_tops:
        Sorted tuple of base top simplices as sorted id tuples.
    rounds:
        The iteration depth ``b``.
    levels:
        One ``(colors, views)`` pair per round; ``colors[i]`` is the color of
        round-level vertex ``i`` and ``views[i]`` the sorted tuple of
        previous-level vertex ids forming its snapshot (round 1 references
        base ids).
    tops:
        Final-level maximal simplices as tuples of last-level vertex ids.
    carrier_masks:
        Per final-level vertex: its carrier as a bitmask over base ids.
    """

    __slots__ = ("base_colors", "base_tops", "rounds", "levels", "tops", "carrier_masks")

    def __init__(self, base_colors, base_tops, rounds, levels, tops, carrier_masks):
        self.base_colors = tuple(base_colors)
        self.base_tops = tuple(base_tops)
        self.rounds = rounds
        self.levels = tuple(levels)
        self.tops = tuple(tops)
        self.carrier_masks = tuple(carrier_masks)

    @property
    def top_count(self) -> int:
        return len(self.tops)

    @property
    def vertex_count(self) -> int:
        return len(self.carrier_masks)

    # -- serialization (the disk cache stores plain tuples) -------------------

    def to_payload(self) -> tuple:
        return (
            self.base_colors,
            self.base_tops,
            self.rounds,
            self.levels,
            self.tops,
            self.carrier_masks,
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "CompactSubdivision":
        base_colors, base_tops, rounds, levels, tops, carrier_masks = payload
        return cls(base_colors, base_tops, rounds, levels, tops, carrier_masks)

    # -- vectorized carrier validation ----------------------------------------

    def validate_carriers(self) -> None:
        """Check the packed subdivision invariants over the integer arrays.

        Every carrier mask must be non-empty, lie inside some base top, and
        contain its vertex's color — the packed form of the chromatic-carrier
        conditions ``Subdivision.validate(chromatic=True)`` checks on the
        object graph, run in a single sweep of int operations (no Simplex is
        ever built).  Raises ``ValueError`` on the first violation; also used
        as the integrity gate for disk-cache loads.
        """
        base_top_masks = []
        for top in self.base_tops:
            mask = 0
            for i in top:
                mask |= 1 << i
            base_top_masks.append(mask)
        colors = self.base_colors
        final_colors = self.levels[-1][0] if self.levels else ()
        for vertex_id, carrier in enumerate(self.carrier_masks):
            if carrier == 0:
                raise ValueError(f"packed vertex {vertex_id} has an empty carrier")
            for top_mask in base_top_masks:
                if carrier & ~top_mask == 0:
                    break
            else:
                raise ValueError(
                    f"packed carrier {carrier:#x} of vertex {vertex_id} "
                    "straddles the base tops"
                )
            color = final_colors[vertex_id]
            mask = carrier
            while mask:
                low = mask & -mask
                if colors[low.bit_length() - 1] == color:
                    break
                mask ^= low
            else:
                raise ValueError(
                    f"color {color} of packed vertex {vertex_id} is missing "
                    "from its carrier"
                )

    def without_isolated(self) -> "CompactSubdivision":
        """This build minus the final-level vertices no top covers, renumbered
        densely in order (``self`` when all are covered).  Only restricted
        builds have such vertices: participation can drop all their tops.
        """
        from repro.topology.collapse import covered_vids_of

        covered = covered_vids_of(self)
        if len(covered) == len(self.carrier_masks):
            return self
        new_id = {old: new for new, old in enumerate(covered)}
        colors, views = self.levels[-1]
        final = (tuple(colors[v] for v in covered), tuple(views[v] for v in covered))
        return CompactSubdivision(
            self.base_colors,
            self.base_tops,
            self.rounds,
            self.levels[:-1] + (final,),
            [tuple(new_id[v] for v in top) for top in self.tops],
            [self.carrier_masks[v] for v in covered],
        )

    def top_carrier_masks(self) -> tuple[int, ...]:
        """Per final top: the OR of its members' carrier masks."""
        carrier_masks = self.carrier_masks
        result = []
        for top in self.tops:
            mask = 0
            for i in top:
                mask |= carrier_masks[i]
            result.append(mask)
        return tuple(result)

    def __repr__(self) -> str:
        return (
            f"CompactSubdivision(rounds={self.rounds}, "
            f"vertices={self.vertex_count}, tops={self.top_count})"
        )


def advance_round(
    tops: Iterable[tuple[int, ...]],
    colors: Sequence[int],
    carrier_masks: Sequence[int],
    new_colors: list[int],
    new_views: list[tuple[int, ...]],
    new_masks: list[int],
    plan: Callable[[tuple[int, ...]], RoundPlan] | None = None,
) -> Iterator[list[tuple[int, ...]]]:
    """One subdivision round over packed ids, yielding each input top's new tops.

    The one orbit-table discovery loop behind every packed builder
    (:func:`build_sds_packed`, the model-restricted builds of
    :mod:`repro.models.packed` and the streaming shard writer of
    :mod:`repro.topology.shards`): per current top, extract the snapshot
    prefixes once, dedupe ``(member, prefix)`` pairs through one dict for the
    whole round — keyed by ``(old vertex id, prefix)``, so vertices shared
    across faces glue automatically — and emit the new tops via the
    precompiled template getters.  Each new vertex is appended to
    ``new_colors``/``new_views``/``new_masks`` when first discovered, so its id
    is its discovery index.  Discovery order depends only on the top order
    and the plan, which makes the ids — and so the bytes of both on-disk
    formats — deterministic across processes and identical between the
    in-RAM and streaming builders.

    ``plan`` maps a top's member colors to the round plan
    (:meth:`repro.topology.orbits._PackedTables.plan`) of the templates a
    model admits for them; ``None`` emits every template (the identity).
    """
    key_to_id: dict[tuple[int, tuple[int, ...]], int] = {}
    key_get = key_to_id.get
    for top in tops:
        tables = packed_tables(len(top))
        if plan is None:
            prefix_getters, pairs, template_getters = tables.full_plan
        else:
            prefix_getters, pairs, template_getters = plan(
                tuple(colors[vid] for vid in top)
            )
        prefixes = [getter(top) for getter in prefix_getters]
        local = [0] * tables.n_pairs
        for local_id, member_index, slot in pairs:
            prefix = prefixes[slot]
            key = (top[member_index], prefix)
            vertex_id = key_get(key)
            if vertex_id is None:
                vertex_id = len(new_colors)
                key_to_id[key] = vertex_id
                new_colors.append(colors[top[member_index]])
                new_views.append(prefix)
                mask = 0
                for i in prefix:
                    mask |= carrier_masks[i]
                new_masks.append(mask)
            local[local_id] = vertex_id
        yield [getter(local) for getter in template_getters]


def build_sds_packed(
    base_colors: Sequence[int],
    base_tops: Sequence[tuple[int, ...]],
    rounds: int,
    plan: Callable[[tuple[int, ...]], RoundPlan] | None = None,
) -> CompactSubdivision:
    """Build ``SDS^rounds`` over packed base ids with the orbit tables.

    Per round, each current top of size ``k`` contributes Fubini(k) new tops
    through :func:`advance_round`: the distinct snapshot prefixes are
    extracted once (C-level ``itemgetter``), each ``(member, prefix)`` pair
    is deduplicated through one global dict, and the template getters emit
    the member tuples of every ordered partition without enumerating
    partitions.  ``plan`` is :func:`advance_round`'s template plan; the
    model-restricted builder
    (:func:`repro.models.packed.build_sds_packed_restricted`) passes its
    model's here.

    Runs with the cyclic GC paused: the builder allocates hundreds of
    thousands of small tuples that are all reachable, and collection passes
    in the middle of the build cost ~20% wall clock for nothing.
    """
    if rounds < 1:
        raise ValueError("build_sds_packed requires rounds >= 1")
    tops = [tuple(top) for top in base_tops]
    carrier_masks = [1 << i for i in range(len(base_colors))]
    colors = list(base_colors)
    levels = []
    replicated = 0
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for _ in range(rounds):
            new_colors, views, new_masks = [], [], []
            spawned = advance_round(
                tops, colors, carrier_masks, new_colors, views, new_masks, plan
            )
            tops = list(chain.from_iterable(spawned))
            colors, carrier_masks = new_colors, new_masks
            replicated += len(tops)
            levels.append((tuple(colors), tuple(views)))
    finally:
        if gc_was_enabled:
            gc.enable()
    if _OBS.enabled:
        _OBS.metrics.counter("sds.orbit.tops_replicated").inc(replicated)
        _OBS.metrics.counter("sds.orbit.builds").inc()
    return CompactSubdivision(
        tuple(base_colors),
        tuple(tuple(top) for top in base_tops),
        rounds,
        levels,
        tops,
        carrier_masks,
    )


def carrier_decoder(
    base: SimplicialComplex, base_verts: Sequence[Vertex]
) -> Callable[[int], Simplex]:
    """A memoized carrier bitmask -> base :class:`Simplex` decoder.

    Bit ``i`` stands for ``base_verts[i]`` (the packed base ids, in
    ``Vertex.sort_key`` order).  Decoding checks membership once per
    distinct mask and raises ``ValueError`` when the mask is not a simplex
    of ``base`` — carrier data that is not a subdivision fails loudly.
    """
    memo: dict[int, Simplex] = {}

    def decode(mask: int) -> Simplex:
        simplex = memo.get(mask)
        if simplex is None:
            members = []
            remaining = mask
            while remaining:
                low = remaining & -remaining
                members.append(base_verts[low.bit_length() - 1])
                remaining ^= low
            simplex = Simplex._intern_trusted(frozenset(members))
            if simplex not in base:
                raise ValueError(f"carrier union {simplex!r} is not a base simplex")
            memo[mask] = simplex
        return simplex

    return decode


class ThawedArrays:
    """Array-side aliases kept on a materialized compact-backed subdivision.

    Bridges the packed integer world and the object graph after
    :func:`materialize`: per-vertex carrier masks, the base-vertex bit map,
    final top simplices aligned with the packed top order, and the
    :func:`carrier_decoder` of the base.  ``Subdivision`` uses these for the
    vectorized ``carrier_of`` / ``restrict_to_face`` / boundary-restriction
    paths.
    """

    __slots__ = (
        "base_bit",
        "carrier_mask_of",
        "top_simplices",
        "top_union_masks",
        "simplex_for_mask",
    )

    def __init__(
        self, base_bit, carrier_mask_of, top_simplices, top_union_masks, simplex_for_mask
    ):
        self.base_bit = base_bit
        self.carrier_mask_of = carrier_mask_of
        self.top_simplices = top_simplices
        self.top_union_masks = top_union_masks
        self.simplex_for_mask = simplex_for_mask

    def mask_of_base_simplex(self, simplex: Simplex) -> int:
        mask = 0
        base_bit = self.base_bit
        for vertex in simplex:
            mask |= 1 << base_bit[vertex]
        return mask


def materialize_vertex_chain(
    levels: Sequence[tuple[Sequence[int], Sequence[tuple[int, ...]]]],
    base_verts: Sequence[Vertex],
) -> list[Vertex]:
    """Intern the final-level vertices of a packed level chain, in id order.

    The lightweight slice of :func:`materialize` the sharded kernel needs to
    decode solutions: level by level, each ``(color, view)`` becomes an
    interned ``Vertex(color, frozenset_of_previous_level)``.  No
    :class:`Simplex` and no complex is ever built — the only allocations are
    the vertex chain itself, which is vertex-scale, not top-scale.
    """
    previous: Sequence[Vertex] = base_verts
    vertex_intern = Vertex._intern_trusted
    for level_colors, level_views in levels:
        lookup = previous.__getitem__
        previous = [
            vertex_intern(color, frozenset(map(lookup, view)))
            for color, view in zip(level_colors, level_views)
        ]
    return list(previous)


def materialize(
    compact: CompactSubdivision, base: SimplicialComplex
) -> tuple[SimplicialComplex, dict[Vertex, Simplex], ThawedArrays]:
    """Thaw a packed subdivision onto the caller's base complex.

    The packed form stores only ids, so this re-anchors everything to the
    *actual* interned vertices of ``base`` (in sort-key order, matching the
    id assignment at build time): level by level, each ``(color, view)``
    becomes an interned ``Vertex(color, frozenset_of_previous_level)``, the
    final tops become interned simplices, and carrier masks decode to base
    faces.  The result is object-identical to what the naive per-round
    builder produces — the differential suite pins this.
    """
    base_verts = sorted(base.vertices, key=Vertex.sort_key)
    if tuple(v.color for v in base_verts) != compact.base_colors:
        raise ValueError("base complex colors do not match the packed subdivision")
    final = materialize_vertex_chain(compact.levels, base_verts)
    simplex_intern = Simplex._intern_trusted
    final_lookup = final.__getitem__
    top_simplices = [
        simplex_intern(frozenset(map(final_lookup, top))) for top in compact.tops
    ]
    dimension = max(len(top) for top in compact.tops) - 1
    complex_ = SimplicialComplex._from_parts_trusted(
        frozenset(top_simplices), frozenset(final), dimension
    )
    base_bit = {vertex: i for i, vertex in enumerate(base_verts)}
    carrier_mask_of = dict(zip(final, compact.carrier_masks))
    arrays = ThawedArrays(
        base_bit,
        carrier_mask_of,
        top_simplices,
        compact.top_carrier_masks(),
        carrier_decoder(base, base_verts),
    )
    carriers: dict[Vertex, Simplex] = {}
    for vertex, mask in zip(final, compact.carrier_masks):
        carriers[vertex] = arrays.simplex_for_mask(mask)
    if _OBS.enabled:
        _OBS.metrics.counter("sds.orbit.materialized").inc()
    return complex_, carriers, arrays
