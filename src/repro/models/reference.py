"""Naive object-level model restriction — the differential oracle.

The packed filter (:mod:`repro.models.packed`) decomposes runs from int
arrays; this module does the same thing the slow, obviously-correct way, on
interned :class:`~repro.topology.vertex.Vertex` objects: a vertex's payload
*is* its view (a frozenset of previous-level vertices), so a top simplex's
ordered partition at each round is read off by grouping its vertices by
payload and ordering the distinct views by size.  The differential suite
pins the two engines to exact top-set agreement at Hypothesis-random
``(n, b, model)``.

:class:`RestrictedSubdivision` wraps the kept tops as a complex that
quacks like a :class:`~repro.topology.subdivision.Subdivision` — carriers
delegate to the parent (a subcomplex inherits them unchanged) — so the
in-RAM solver (`compile_level`, the naive search,
``validate_decision_map``, ``SimplicialMap``) runs on it unchanged.  No
production path calls this module: the solver reads restricted levels
from the orbit store
(``iterated_standard_chromatic_subdivision(..., model=)``), and the
differential suites hold that store to this oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.models.base import Model, ModelRestrictionEmpty
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.subdivision import Subdivision
    from repro.topology.vertex import Vertex


def _round_blocks(members: frozenset) -> tuple[tuple[tuple[int, ...], ...], frozenset]:
    """One round's ordered partition from member vertices; returns the
    (sorted-color) concurrency classes and the parent members (largest view)."""
    distinct = sorted({vertex.payload for vertex in members}, key=len)
    blocks = []
    seen: set = set()
    for view in distinct:
        fresh = view - seen
        blocks.append(tuple(sorted(v.color for v in fresh)))
        seen |= view
    return tuple(blocks), distinct[-1]


def admits_top(model: Model, top: Simplex, rounds: int) -> bool:
    """Does the model admit the run a level-``rounds`` top encodes?

    Walks the view chain from the top down to the base, checking
    ``keep_round`` on each ordered partition.  Participation is checked by
    the caller (it needs the base complex's color count).
    """
    members: frozenset = frozenset(top)
    for _ in range(rounds):
        blocks, members = _round_blocks(members)
        if not model.keep_round(blocks):
            return False
    return True


def restricted_tops(
    subdivision: "Subdivision", rounds: int, model: Model
) -> frozenset[Simplex]:
    """The model-admitted top simplices of ``SDS^rounds`` (object level)."""
    if model.is_identity:
        return subdivision.complex.maximal_simplices
    n_colors = len({v.color for v in subdivision.base.vertices})
    kept = []
    for top in subdivision.complex.maximal_simplices:
        carrier = subdivision.carrier_of(top)
        participants = frozenset(v.color for v in carrier)
        if not model.keep_participation(participants, n_colors):
            continue
        if admits_top(model, top, rounds):
            kept.append(top)
    return frozenset(kept)


class RestrictedSubdivision:
    """The sub-``SDS^b`` complex a model carves, as a Subdivision look-alike.

    Only the complex shrinks; every carrier question is answered by the
    parent subdivision (kept vertices/simplices are a subset of its), so the
    kernel compiler, the naive search and the decision-map validator all
    work unchanged.
    """

    # ``__weakref__``: compiled levels are memoized weak-keyed by level object.
    __slots__ = ("parent", "model", "rounds", "_complex", "__weakref__")

    def __init__(
        self,
        parent: "Subdivision",
        model: Model,
        rounds: int,
        complex_: SimplicialComplex,
    ):
        self.parent = parent
        self.model = model
        self.rounds = rounds
        self._complex = complex_

    @property
    def base(self) -> SimplicialComplex:
        return self.parent.base

    @property
    def complex(self) -> SimplicialComplex:
        return self._complex

    def carrier(self, vertex: "Vertex") -> Simplex:
        return self.parent.carrier(vertex)

    def carrier_of(self, simplex: Simplex) -> Simplex:
        return self.parent.carrier_of(simplex)

    def _carrier_mask_table(self):
        return self.parent._carrier_mask_table()


def restrict_subdivision(
    subdivision: "Subdivision", rounds: int, model: Model
) -> RestrictedSubdivision | "Subdivision":
    """Restrict an in-RAM subdivision to the model's admitted runs.

    Identity models return the subdivision itself (the strict no-op path).
    Raises :class:`ModelRestrictionEmpty` when nothing survives.
    """
    if model.is_identity:
        return subdivision
    kept = restricted_tops(subdivision, rounds, model)
    if not kept:
        raise ModelRestrictionEmpty(
            f"model {model.fingerprint} admits no run of this complex"
        )
    vertices = frozenset(v for top in kept for v in top)
    dimension = max(len(top) for top in kept) - 1
    complex_ = SimplicialComplex._from_parts_trusted(kept, vertices, dimension)
    return RestrictedSubdivision(subdivision, model, rounds, complex_)


__all__ = [
    "RestrictedSubdivision",
    "admits_top",
    "restrict_subdivision",
    "restricted_tops",
]
