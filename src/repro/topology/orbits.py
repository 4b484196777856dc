"""Orbit-reduced enumeration of ordered set partitions.

The maximal simplices of ``SDS(σ)`` are in bijection with the ordered
partitions of σ's ``k`` vertices (Section 3.5; Fubini(k) of them).  The
color-permutation action of ``S_k`` on σ permutes those partitions, and two
ordered partitions lie in the same orbit exactly when they share a
*composition* — the sequence of block sizes ``(|B_1|, ..., |B_m|)``.  There
are only ``2^(k-1)`` compositions, so instead of re-running the recursive
partition enumeration (``ordered_set_partitions``) we enumerate one canonical
representative per orbit — consecutive index blocks — and generate the
remaining members by the coset transversal of the Young subgroup
``S_{c_1} x ... x S_{c_m}``: every way of choosing which indices land in
which block, i.e. the multinomial ``k! / (c_1! ... c_m!)`` coset
representatives.  Summing the multinomials over all compositions recovers
Fubini(k), which the test suite pins.

On top of the orbit enumeration this module derives the *packed tables* the
array-backed ``SDS^b`` builder (:mod:`repro.topology.compact`) consumes.
For a top simplex handed over as a sorted tuple of ``k`` packed vertex ids,
every SDS vertex it generates is determined by a *local pair*
``(member index, snapshot prefix)``; distinct pairs get dense local ids
(e.g. 32 for ``k = 4`` — exactly ``f_0(SDS(s^3))``), templates become tuples
of local ids, and both prefix extraction and template instantiation compile
to :func:`operator.itemgetter` calls, so the per-simplex work in the builder
is a handful of C-level tuple extractions instead of re-deriving Fubini(k)
partitions.

The tables are pure integer combinatorics — they reference no vertices or
simplices — so they live outside the intern tables and deliberately survive
:func:`repro.topology.interning.clear_intern_caches`: a "cold" build pays
for materialization, not for one-time template math (the same policy CPython
applies to its small-int cache).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.obs import OBS as _OBS

#: ``(prefix getters, (local id, member index, prefix slot) pairs, template
#: getters)`` — see :meth:`_PackedTables.plan`.
RoundPlan = tuple[
    tuple[Callable, ...], tuple[tuple[int, int, int], ...], tuple[Callable, ...]
]


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Yield every composition of ``total`` (ordered tuples of positive ints).

    Compositions index the orbits of the ``S_total`` action on ordered set
    partitions; there are ``2^(total-1)`` of them for ``total >= 1``.
    """
    if total < 0:
        raise ValueError("compositions are defined for non-negative totals")
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def orbit_count(size: int) -> int:
    """The number of orbits: ``2^(size-1)`` for ``size >= 1``, else 1."""
    return 1 if size == 0 else 2 ** (size - 1)


def orbit_size(composition: Sequence[int]) -> int:
    """Ordered set partitions sharing this composition: the multinomial."""
    size = 1
    remaining = sum(composition)
    for block in composition:
        size *= comb(remaining, block)
        remaining -= block
    return size


def orbit_representative(composition: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The canonical member of the orbit: consecutive index blocks."""
    blocks = []
    start = 0
    for block_size in composition:
        blocks.append(tuple(range(start, start + block_size)))
        start += block_size
    return tuple(blocks)


def orbit_members(
    composition: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every ordered set partition of ``range(sum(composition))`` with
    the given block sizes (each block a sorted index tuple).

    This is the coset transversal of the Young subgroup: choosing the first
    block among the available indices, then recursing, enumerates exactly one
    permutation per coset applied to :func:`orbit_representative`.
    """

    def expand(available: tuple[int, ...], sizes: tuple[int, ...]):
        if not sizes:
            yield ()
            return
        for block in combinations(available, sizes[0]):
            chosen = set(block)
            remaining = tuple(i for i in available if i not in chosen)
            for rest in expand(remaining, sizes[1:]):
                yield (block,) + rest

    yield from expand(tuple(range(sum(composition))), tuple(composition))


@lru_cache(maxsize=None)
def orbit_partition_templates(
    size: int,
) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]:
    """Every ordered-partition template over ``0..size-1``, derived per orbit.

    Same contract as ``sds_partition_templates`` — one entry per ordered
    partition, each a tuple of ``(block_indices, prefix_indices)`` pairs —
    but the prefixes are *sorted* index tuples (the snapshot is a set; the
    packed builder keys on the canonical form) and the enumeration runs once
    per composition orbit instead of once per partition.
    """
    templates = []
    for composition in compositions(size):
        for member in orbit_members(composition):
            prefix_sofar: list[int] = []
            blocks = []
            for block in member:
                prefix_sofar.extend(block)
                blocks.append((block, tuple(sorted(prefix_sofar))))
            templates.append(tuple(blocks))
    return tuple(templates)


def _tuple_getter(indices: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``itemgetter`` that always returns a tuple (itemgetter of one arg doesn't)."""
    if len(indices) == 1:
        index = indices[0]
        return lambda row, _i=index: (row[_i],)
    return itemgetter(*indices)


class _PackedTables:
    """The per-size tables driving the packed ``SDS`` builder.

    For one top simplex (a sorted tuple ``top`` of ``size`` packed vertex
    ids):

    * ``prefix_getters[p](top)`` extracts the global-id tuple of the ``p``-th
      distinct snapshot prefix (ascending ids — the canonical key);
    * ``pair_info[lid] = (member_index, prefix_id)`` describes local vertex
      ``lid``: the SDS vertex of ``top[member_index]``'s color whose view is
      prefix ``prefix_id``;
    * ``template_getters[t](local)`` maps the per-top array ``local`` (global
      vertex id per local id) to the ``t``-th maximal simplex's member tuple;
    * ``full_plan`` is :meth:`plan` of every template, the identity round.
    """

    def __init__(self, size: int):
        prefix_ids: dict[tuple[int, ...], int] = {}
        prefixes: list[tuple[int, ...]] = []
        pair_ids: dict[tuple[int, int], int] = {}
        pair_info: list[tuple[int, int]] = []
        local_templates: list[tuple[int, ...]] = []
        orbits = 0
        for composition in compositions(size):
            orbits += 1
            for member in orbit_members(composition):
                prefix_sofar: list[int] = []
                local: list[int] = []
                for block in member:
                    prefix_sofar.extend(block)
                    prefix = tuple(sorted(prefix_sofar))
                    prefix_id = prefix_ids.get(prefix)
                    if prefix_id is None:
                        prefix_id = len(prefixes)
                        prefix_ids[prefix] = prefix_id
                        prefixes.append(prefix)
                    for member_index in block:
                        pair = (member_index, prefix_id)
                        local_id = pair_ids.get(pair)
                        if local_id is None:
                            local_id = len(pair_info)
                            pair_ids[pair] = local_id
                            pair_info.append(pair)
                    local.extend(pair_ids[(i, prefix_id)] for i in block)
                local_templates.append(tuple(local))
        self.size = size
        self.orbits = orbits
        self.pair_info = tuple(pair_info)
        self.prefix_getters = tuple(_tuple_getter(p) for p in prefixes)
        self.template_getters = tuple(_tuple_getter(t) for t in local_templates)
        # The raw local-id tuples behind template_getters: plan() reads them
        # to instantiate only the vertices the planned templates touch.
        self.local_templates = tuple(local_templates)
        self.n_pairs = len(pair_info)
        self.n_templates = len(local_templates)
        self.full_plan = self.plan(range(self.n_templates))
        if _OBS.enabled:
            _OBS.metrics.counter("sds.orbit.orbits_built", size=size).inc(orbits)
            _OBS.metrics.counter("sds.orbit.tables_built", size=size).inc()

    def plan(self, templates: Iterable[int]) -> RoundPlan:
        """What one round instantiates to emit only ``templates`` of a top.

        ``(prefix getters, pairs, template getters)``: the getters of the
        snapshot prefixes the templates' vertices view; one
        ``(local id, member index, prefix slot)`` triple per local vertex the
        templates touch, where the slot indexes the prefix getters; and the
        templates' own getters.  Pairs run in ascending local id, the full
        round's order; a model-restricted round (:mod:`repro.models.packed`)
        plans only the templates the model admits.
        """
        templates = tuple(templates)
        local_ids = sorted({lid for t in templates for lid in self.local_templates[t]})
        prefix_ids = sorted({self.pair_info[lid][1] for lid in local_ids})
        slot_of = {prefix_id: slot for slot, prefix_id in enumerate(prefix_ids)}
        return (
            tuple(self.prefix_getters[p] for p in prefix_ids),
            tuple(
                (lid, self.pair_info[lid][0], slot_of[self.pair_info[lid][1]])
                for lid in local_ids
            ),
            tuple(self.template_getters[t] for t in templates),
        )


@lru_cache(maxsize=None)
def packed_tables(size: int) -> _PackedTables:
    """The per-size tables, memoized process-wide (pure integer data)."""
    return _PackedTables(size)


@lru_cache(maxsize=None)
def template_partitions(size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per template, the ordered partition of member indices it instantiates.

    ``template_partitions(k)[t]`` is the ordered set partition of
    ``range(k)`` whose maximal simplex ``packed_tables(k).template_getters[t]``
    emits — the two enumerations walk ``compositions`` × ``orbit_members`` in
    the same order, which the orbit suite pins.  This is what lets a
    model-restricted build (:mod:`repro.models.packed`) judge a template's
    round structure *before* instantiating any of its vertices.
    """
    return tuple(
        member
        for composition in compositions(size)
        for member in orbit_members(composition)
    )


@lru_cache(maxsize=None)
def face_index_tuples(size: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per arity, the index subsets of a sorted ``size``-tuple's proper+full faces.

    ``face_index_tuples(k)[a]`` lists every strictly increasing index tuple of
    length ``a + 2`` over ``range(k)`` — i.e. the column selections that turn a
    top simplex (a sorted vid tuple) into its dimension-``a + 1`` faces, the
    enumeration the sharded CSP compiler and the collapse pass run per top
    block.  Index tuples are increasing and the top's vids are sorted, so every
    extracted face is itself a sorted vid tuple (the canonical census key).
    Pure integer combinatorics, memoized process-wide like the packed tables.
    """
    if size < 0:
        raise ValueError("face_index_tuples requires size >= 0")
    return tuple(
        tuple(combinations(range(size), arity))
        for arity in range(2, size + 1)
    )


def prime_packed_tables(max_size: int = 5) -> None:
    """Derive the packed tables for every simplex size up to ``max_size``.

    Used as (part of) a process-pool worker initializer: the tables are pure
    combinatorics shared by every build the worker will run, so paying the
    one-time derivation up front keeps it out of the first task's critical
    path.  Sizes beyond 5 (Fubini 541) are outside this library's practical
    range and are derived lazily if ever needed.
    """
    for size in range(1, max_size + 1):
        packed_tables(size)
