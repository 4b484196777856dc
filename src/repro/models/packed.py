"""Model restriction at the packed layer: orbit-pruned builds and a run filter.

Every top simplex of a packed ``SDS^b`` build encodes one run.  Its member
vertices at round ``r`` carry views into round ``r - 1``, and within a top
those views form a chain under inclusion — so the round's ordered partition
is recoverable purely from the arrays: group the members by equal view,
order the distinct views by size, and each concurrency class is one view
minus its predecessor (its colors read off the previous level's color
array).  The largest view *is* the parent top at round ``r - 1``; recurse
until the base.

:class:`PackedRunFilter` evaluates a :class:`~repro.models.base.Model`
against that decomposition.  It works identically on in-RAM
:class:`~repro.topology.compact.CompactSubdivision` builds and on
out-of-core :class:`~repro.topology.shards.ShardedSubdivision` stores —
both expose per-round ``(colors, views)`` arrays, and the filter streams
over ``iter_tops_with_masks`` without ever materializing the top list.
Parent-level verdicts are memoized: sibling tops share ancestors, so the
per-top cost after the final round is amortized O(1).  No production level
runs it: it is the reference the builders below are tested against
(:func:`run_filter`, :func:`iter_admitted_tops`, :func:`restrict_compact`)
and the full-then-filter baseline of the E21 bench rows.

Model levels are *orbit-cheap to build from scratch* instead:
:func:`build_sds_packed_restricted` and the shard writer run the one orbit
round loop with the model's :func:`model_plan`, judging each
ordered-partition template's block structure once per member-color
pattern (memoized — a handful of ``keep_round`` calls per round, however
many tops there are) and never instantiating the vertices of a rejected
template.  Rejected rounds prune their entire
subtree, so a restricted cold build does strictly *less* work than a full
cold build — the ``e19.*`` bench floors pin that, per model, as
"no slower than the full build at the same ``(n, b)``".
:func:`ensure_restricted` caches these builds under the full build's
``sds_cache`` structure key extended with the model fingerprint, and
:func:`model_variables` is the one rule for which of a model level's
vertices the compilers make CSP variables.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.models.base import Model, ModelRestrictionEmpty
from repro.topology import sds_cache
from repro.topology.collapse import covered_vids_of, iter_tops_with_masks
from repro.topology.compact import CompactSubdivision, build_sds_packed
from repro.topology.orbits import RoundPlan, packed_tables, template_partitions

Levels = tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


def level_stack(subdivision) -> tuple[Levels, tuple[int, ...]]:
    """Per-round ``(colors, views)`` arrays + base colors, for either backend."""
    if hasattr(subdivision, "iter_shards"):
        levels = tuple(subdivision.lower_levels) + (
            (tuple(subdivision.colors), tuple(subdivision.final_views())),
        )
        return levels, tuple(subdivision.base_colors)
    return tuple(subdivision.levels), tuple(subdivision.base_colors)


class PackedRunFilter:
    """Evaluate a model against packed run decompositions, with memoization."""

    __slots__ = ("model", "levels", "base_colors", "n_colors", "_prev_colors", "_memo")

    def __init__(self, model: Model, levels: Levels, base_colors: Iterable[int]):
        self.model = model
        self.levels = levels
        self.base_colors = tuple(base_colors)
        self.n_colors = len(set(self.base_colors))
        # Colors of the objects round r's views point at: the base for r=1,
        # round r-1's vertices after that.
        self._prev_colors = (self.base_colors,) + tuple(
            level[0] for level in levels[:-1]
        )
        self._memo: dict[tuple[int, tuple[int, ...]], bool] = {}

    def admits(self, top: tuple[int, ...], carrier_union_mask: int) -> bool:
        """Admit the run this (final-level) top encodes?

        The final round is decomposed inline and NOT memoized: each final
        top is its own memo key, so caching it would grow the memo to
        top-scale — which breaks the out-of-core contract when the filter
        streams a 31M-top shard store.  Only ancestor verdicts (shared by
        sibling tops, vertex-scale many) enter the memo.
        """
        participants = frozenset(
            self.base_colors[i]
            for i in range(carrier_union_mask.bit_length())
            if carrier_union_mask >> i & 1
        )
        if not self.model.keep_participation(participants, self.n_colors):
            return False
        blocks, parent = self._round_blocks(len(self.levels), tuple(top))
        return self.model.keep_round(blocks) and self._admits(
            len(self.levels) - 1, parent
        )

    def _round_blocks(
        self, r: int, members: tuple[int, ...]
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Round ``r``'s ordered partition of ``members`` and its parent top.

        Distinct views form a chain, so sorting by size orders the
        concurrency classes; each class is a view minus its predecessor, and
        the largest view is the round ``r - 1`` parent top.
        """
        views = self.levels[r - 1][1]
        prev_colors = self._prev_colors[r - 1]
        distinct = sorted({views[vid] for vid in members}, key=len)
        blocks = []
        seen: set[int] = set()
        for view in distinct:
            fresh = [vid for vid in view if vid not in seen]
            blocks.append(tuple(sorted(prev_colors[vid] for vid in fresh)))
            seen.update(view)
        return tuple(blocks), distinct[-1]

    def _admits(self, r: int, members: tuple[int, ...]) -> bool:
        if r == 0:
            return True
        key = (r, members)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        blocks, parent = self._round_blocks(r, members)
        ok = self.model.keep_round(blocks) and self._admits(r - 1, parent)
        self._memo[key] = ok
        return ok


def run_filter(subdivision, model: Model) -> PackedRunFilter:
    """A :class:`PackedRunFilter` for a compact or sharded subdivision."""
    levels, base_colors = level_stack(subdivision)
    return PackedRunFilter(model, levels, base_colors)


def iter_admitted_tops(
    subdivision, model: Model, flt: PackedRunFilter | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """``iter_tops_with_masks`` restricted to the model's admitted runs.

    Streaming: shard blocks are read one at a time and dropped tops cost no
    memory, so the restricted census stays out-of-core on sharded stores.
    """
    if flt is None:
        flt = run_filter(subdivision, model)
    for top, mask in iter_tops_with_masks(subdivision):
        if flt.admits(top, mask):
            yield top, mask


def restrict_compact(compact: CompactSubdivision, model: Model) -> CompactSubdivision:
    """The sub-``SDS^b`` complex the model carves, as a packed build.

    Vertex-level arrays (levels, carrier masks) are shared verbatim with the
    full build — the restriction only drops top simplices, so deriving it
    from a cached full build costs one filtered pass over the top list.
    """
    if model.is_identity:
        return compact
    flt = PackedRunFilter(model, tuple(compact.levels), compact.base_colors)
    masks = compact.top_carrier_masks()
    kept = tuple(
        top for top, mask in zip(compact.tops, masks) if flt.admits(tuple(top), mask)
    )
    if not kept:
        raise ModelRestrictionEmpty(
            f"model {model.fingerprint} admits no run of this complex"
        )
    return CompactSubdivision(
        base_colors=compact.base_colors,
        base_tops=compact.base_tops,
        rounds=compact.rounds,
        levels=compact.levels,
        tops=kept,
        carrier_masks=compact.carrier_masks,
    )


def model_plan(model: Model) -> Callable[[tuple[int, ...]], RoundPlan] | None:
    """``model``'s template plan for :func:`~repro.topology.compact.advance_round`.

    ``None`` (every template) for the identity model; otherwise a function
    from a top's member colors to the plan of the templates whose ordered
    partition the model admits.

    Memoized per color pattern: at most ``k!`` distinct color tuples arise
    per arity, so ``keep_round`` runs a bounded number of times per *build*
    regardless of how many tops the levels hold.  A plan instantiates only
    the vertices admitted templates touch — with hard pruning (e.g.
    ``k_concurrent(1)``) a small fraction of the full pair table.
    Participation is a whole-run fact and is not part of a round's plan.
    """
    if model.is_identity:
        return None
    keep_round = model.keep_round
    memo: dict[tuple[int, ...], RoundPlan] = {}

    def plan(member_colors: tuple[int, ...]) -> RoundPlan:
        hit = memo.get(member_colors)
        if hit is None:
            admitted = [
                t
                for t, partition in enumerate(template_partitions(len(member_colors)))
                if keep_round(
                    tuple(
                        tuple(sorted(member_colors[i] for i in block))
                        for block in partition
                    )
                )
            ]
            hit = memo[member_colors] = packed_tables(len(member_colors)).plan(
                admitted
            )
        return hit

    return plan


def participation_mask_filter(model: Model, base_colors: tuple[int, ...]):
    """A memoized ``carrier-union mask -> keep_participation`` predicate.

    Participation depends only on the run's carrier-union bitmask, and a
    level has few distinct masks, so the builder-side filters evaluate the
    model once per mask instead of once per top.
    """
    n_colors = len(set(base_colors))
    memo: dict[int, bool] = {}

    def admits(mask: int) -> bool:
        ok = memo.get(mask)
        if ok is None:
            participants = frozenset(
                base_colors[i] for i in range(mask.bit_length()) if mask >> i & 1
            )
            ok = model.keep_participation(participants, n_colors)
            memo[mask] = ok
        return ok

    return admits


def build_sds_packed_restricted(
    base_colors: tuple[int, ...],
    base_tops: tuple[tuple[int, ...], ...],
    rounds: int,
    model: Model,
) -> CompactSubdivision:
    """Build the model's sub-``SDS^rounds`` complex directly, orbit-pruned.

    :func:`repro.topology.compact.build_sds_packed` with the model's
    :func:`model_plan` inside the generation loop: a round-``r`` top is only
    emitted through templates whose ordered partition the model admits, so
    a rejected round prunes its whole subtree and the build does strictly
    less work than the full one.  Participation is a whole-run fact and is
    applied to the final tops.  Produces the same complex as filtering the
    full build (the differential suite pins this), with vertex ids in *its
    own* discovery order — the canonical numbering of cached restricted
    entries.
    """
    if model.is_identity:
        return build_sds_packed(base_colors, base_tops, rounds)
    built = build_sds_packed(base_colors, base_tops, rounds, model_plan(model))
    participation_ok = participation_mask_filter(model, built.base_colors)
    kept = [
        top
        for top, mask in zip(built.tops, built.top_carrier_masks())
        if participation_ok(mask)
    ]
    if not kept:
        raise ModelRestrictionEmpty(
            f"model {model.fingerprint} admits no run of this complex"
        )
    built.tops = tuple(kept)
    return built


def ensure_restricted(
    base_colors: tuple[int, ...],
    base_tops: tuple[tuple[int, ...], ...],
    rounds: int,
    model: Model,
) -> tuple[CompactSubdivision, str]:
    """Load-or-build the model-restricted packed build, through the cache.

    Returns ``(restricted, outcome)`` with the outcome of
    :func:`repro.topology.sds_cache.load_or_build`: ``"hit"`` (the
    restricted entry was cached and passed the integrity gate — these
    entries decide model verdicts) or ``"built"``/``"built-unstored"``
    (orbit-pruned build).  Cached entries always carry
    :func:`build_sds_packed_restricted`'s canonical vertex numbering —
    rebuilding restricted is *cheaper* than loading the full build and
    filtering it, so there is no derive-from-full path.  The identity model
    degenerates to the plain full-build cache path with the pre-model key.
    """
    base_colors = tuple(base_colors)
    base_tops = tuple(tuple(top) for top in base_tops)
    model_fingerprint = None if model.is_identity else model.fingerprint
    key = sds_cache.structure_key(
        base_colors, base_tops, rounds, model_fingerprint=model_fingerprint
    )
    return sds_cache.load_or_build(
        key,
        lambda: build_sds_packed_restricted(base_colors, base_tops, rounds, model),
        model_slug=None if model.is_identity else model.slug,
    )


def model_variables(subdivision, model: Model | None) -> list[int] | None:
    """The packed vids that are CSP variables of ``model``'s level.

    ``None`` means every vid: the identity model (or ``None``), or a
    restricted store whose every vertex some kept top covers.  Otherwise the
    covered vids in vid order; participation can drop every top of a vertex
    that admitted templates instantiated, and such an isolated vertex must
    not become a variable.  A model level compiles only from the model's
    own restricted store (``subdivision.model_fingerprint`` is the model's,
    as :func:`repro.topology.shards.ensure_sharded` writes it), so any other
    store raises ``ValueError``.
    """
    if model is None or model.is_identity:
        return None
    if getattr(subdivision, "model_fingerprint", None) != model.fingerprint:
        raise ValueError(
            f"model {model.fingerprint} compiles only from its own restricted "
            "store (ensure_sharded(..., model=model))"
        )
    covered = covered_vids_of(subdivision)
    if not covered:
        raise ModelRestrictionEmpty(
            f"model {model.fingerprint} admits no run at this level"
        )
    return None if len(covered) == subdivision.vertex_count else covered


__all__ = [
    "PackedRunFilter",
    "build_sds_packed_restricted",
    "ensure_restricted",
    "iter_admitted_tops",
    "level_stack",
    "model_plan",
    "model_variables",
    "restrict_compact",
    "run_filter",
]
