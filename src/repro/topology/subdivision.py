"""Subdivisions of complexes, tracked by their carrier maps.

Section 2: ``B(A)`` is a subdivision of ``A`` when their geometric
realizations agree and every simplex of ``B`` sits inside a simplex of
``A``; ``carrier(s, A)`` is the smallest such simplex.  Combinatorially we
represent a subdivision as a complex plus a carrier assignment for each
vertex; for the subdivisions this library builds (standard chromatic and
barycentric, and their iterates) the carrier of a simplex is the union of
the carriers of its vertices, which we validate rather than assume.
"""

from __future__ import annotations

from typing import Mapping

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex


class Subdivision:
    """A subdivision ``B(A)``: the subdivided complex plus carrier data.

    Parameters
    ----------
    base:
        The complex being subdivided (``A``).
    complex:
        The subdividing complex (``B(A)``).
    carriers:
        For each vertex of ``complex``, its carrier — a simplex of ``base``.
    """

    # ``__weakref__``: tasks memoize a compiled CSP per level object in a
    # weak-keyed map (repro.core.task.Task._compiled_levels).
    __slots__ = (
        "base",
        "_complex",
        "_carriers_map",
        "_carrier_of_cache",
        "_compact",
        "_arrays",
        "__weakref__",
    )

    def __init__(
        self,
        base: SimplicialComplex,
        complex: SimplicialComplex,
        carriers: Mapping[Vertex, Simplex],
    ):
        missing = complex.vertices - carriers.keys()
        if missing:
            raise ValueError(f"{len(missing)} subdivision vertices lack a carrier")
        # Many vertices share a carrier (every vertex deep inside the same
        # base simplex does), so validate each *distinct* carrier exactly once
        # through the complex's membership index instead of re-scanning the
        # base per vertex.
        distinct_carriers = {carriers[v] for v in complex.vertices}
        for carrier in distinct_carriers:
            if carrier not in base:
                raise ValueError(f"carrier {carrier!r} is not a base simplex")
        self.base = base
        self._complex = complex
        self._carriers_map = {v: carriers[v] for v in complex.vertices}
        self._carrier_of_cache: dict[Simplex, Simplex] = {}
        self._compact = None
        self._arrays = None

    # -- packed backing (the orbit engine) ------------------------------------

    @classmethod
    def _from_compact(cls, base: SimplicialComplex, compact) -> "Subdivision":
        """A subdivision backed by packed arrays, materialized lazily.

        Trusted constructor for the orbit engine
        (:mod:`repro.topology.compact`): the packed build has already passed
        ``validate_carriers``, so ``__init__``'s per-carrier membership scan
        is skipped and the object graph (``complex`` / carriers) is only
        built on first access — consumers that never look at the objects
        (e.g. a bench row timing the packed build, or a worker that ships
        the structure onward) never pay for materialization.
        """
        self = object.__new__(cls)
        self.base = base
        self._complex = None
        self._carriers_map = None
        self._carrier_of_cache = {}
        self._compact = compact
        self._arrays = None
        return self

    def _force(self) -> None:
        from repro.topology.compact import materialize

        complex_, carriers, arrays = materialize(self._compact, self.base)
        self._complex = complex_
        self._carriers_map = carriers
        self._arrays = arrays

    @property
    def complex(self) -> SimplicialComplex:
        complex_ = self._complex
        if complex_ is None:
            self._force()
            complex_ = self._complex
        return complex_

    @property
    def _carriers(self) -> dict[Vertex, Simplex]:
        carriers = self._carriers_map
        if carriers is None:
            self._force()
            carriers = self._carriers_map
        return carriers

    def _carrier_mask_table(self):
        """(vertex -> base bitmask, mask decoder) when packed state exists.

        The CSP kernel's compile step uses this to compute carrier unions as
        integer ORs over the packed arrays instead of frozenset unions.
        Returns ``None`` for subdivisions without packed backing.
        """
        if self._compact is None:
            return None
        if self._arrays is None:
            self._force()
        arrays = self._arrays
        return arrays.carrier_mask_of, lambda mask: arrays.simplex_for_mask(mask, self.base)

    # -- carrier algebra ------------------------------------------------------

    def carrier(self, vertex: Vertex) -> Simplex:
        return self._carriers[vertex]

    def carrier_of(self, simplex: Simplex) -> Simplex:
        """Carrier of a simplex: the union of its vertices' carriers.

        Raises ``ValueError`` when the union is not a simplex of the base —
        that would mean the provided carrier data is not a subdivision at
        all, so we fail loudly rather than return garbage.

        Results are memoized per (interned) simplex: ``validate``,
        ``restrict_to_face``, and the solvability search all ask for the same
        carriers repeatedly.
        """
        cached = self._carrier_of_cache.get(simplex)
        if cached is not None:
            return cached
        arrays = self._arrays
        if arrays is not None:
            # Packed path: union the carrier bitmasks and decode once per
            # distinct mask (the decoder performs the base-membership check).
            mask_of = arrays.carrier_mask_of
            mask = 0
            for vertex in simplex:
                mask |= mask_of[vertex]
            carrier = arrays.simplex_for_mask(mask, self.base)
        else:
            union_vertices: set[Vertex] = set()
            for vertex in simplex:
                union_vertices.update(self._carriers[vertex])
            carrier = Simplex(union_vertices)
            if carrier not in self.base:
                raise ValueError(
                    f"carrier union {carrier!r} of {simplex!r} is not a base simplex"
                )
        self._carrier_of_cache[simplex] = carrier
        return carrier

    def carriers(self) -> dict[Vertex, Simplex]:
        return dict(self._carriers)

    # -- face restriction (the paper's ``A(s^q)``) -----------------------------

    def restrict_to_face(self, face: Simplex) -> SimplicialComplex:
        """The subcomplex of simplices whose carrier is a face of ``face``."""
        if face not in self.base:
            raise ValueError(f"{face!r} is not a simplex of the base")
        complex_ = self.complex  # forces materialization for packed backings
        arrays = self._arrays
        if arrays is not None:
            # Packed path: one AND-NOT per top over precomputed carrier-union
            # masks replaces the per-simplex carrier_of + subset test.
            face_mask = arrays.mask_of_base_simplex(face)
            selected = [
                simplex
                for simplex, mask in zip(arrays.top_simplices, arrays.top_union_masks)
                if mask & ~face_mask == 0
            ]
        else:
            selected = [
                m
                for m in complex_.maximal_simplices
                if self.carrier_of(m).is_face_of(face)
            ]
        generated: list[Simplex] = list(selected)
        if not generated:
            # No maximal simplex is fully carried by the face; collect the
            # carried faces of maximal simplices instead.
            for maximal in self.complex.maximal_simplices:
                carried = [v for v in maximal if self._carriers[v].is_face_of(face)]
                if carried and self.carrier_of(Simplex(carried)).is_face_of(face):
                    generated.append(Simplex(carried))
        if not generated:
            raise ValueError(f"no simplex is carried by {face!r}")
        return SimplicialComplex(generated)

    def face_subdivision(self, face: Simplex) -> "Subdivision":
        """The induced subdivision of a base face (again a ``Subdivision``)."""
        restricted = self.restrict_to_face(face)
        base_face = SimplicialComplex([face])
        return Subdivision(
            base_face, restricted, {v: self._carriers[v] for v in restricted.vertices}
        )

    # -- composition ------------------------------------------------------------

    def then(self, finer: "Subdivision") -> "Subdivision":
        """Compose: ``finer`` subdivides ``self.complex``; result subdivides ``self.base``.

        The carrier of a vertex of the finer subdivision is the carrier (in
        the original base) of its carrier simplex.
        """
        if finer.base != self.complex:
            raise ValueError("composition mismatch: finer.base must equal self.complex")
        # Vertices of the finer complex share few distinct carriers, so build
        # a carrier -> composed-carrier table once and read the per-vertex
        # assignment off it instead of recomputing the union per vertex.
        composed_by_carrier = {
            carrier: self.carrier_of(carrier)
            for carrier in set(finer._carriers.values())
        }
        composed_carriers = {
            v: composed_by_carrier[finer._carriers[v]] for v in finer.complex.vertices
        }
        return Subdivision(self.base, finer.complex, composed_carriers)

    # -- validation ----------------------------------------------------------------

    def validate(self, *, chromatic: bool = False, onto: bool | None = None) -> None:
        """Check the combinatorial subdivision invariants, raising on failure.

        * every simplex's carrier union is a base simplex (no straddling);
        * the restriction to each maximal base simplex is pure of the same
          dimension (the subdivision covers the base);
        * carriers are *onto*: every base simplex is some vertex's carrier
          (every open face contains subdivision vertices) — true for SDS and
          Bsd and their iterates, but not for the trivial subdivision, where
          only the 0-faces are carriers; by default the check runs exactly
          when the subdivision is non-trivial, and ``onto`` overrides that;
        * with ``chromatic=True``: the complex is properly colored and each
          vertex's color appears in its carrier's colors (a chromatic
          subdivision in the sense of Herlihy–Shavit).
        """
        for maximal in self.complex.maximal_simplices:
            self.carrier_of(maximal)  # raises if not a base simplex
        for base_top in self.base.maximal_simplices:
            restriction = self.restrict_to_face(base_top)
            if restriction.dimension != base_top.dimension:
                raise ValueError(
                    f"restriction to {base_top!r} has dimension "
                    f"{restriction.dimension} != {base_top.dimension}"
                )
            if not restriction.is_pure():
                raise ValueError(f"restriction to {base_top!r} is not pure")
        if onto is None:
            onto = self.complex != self.base
        if onto:
            covered = set(self._carriers.values())
            for base_simplex in self.base.simplices():
                if base_simplex not in covered:
                    raise ValueError(
                        f"no subdivision vertex has carrier {base_simplex!r}"
                    )
        if chromatic:
            if not self.complex.is_chromatic():
                raise ValueError("subdivision complex is not properly colored")
            for vertex in self.complex.vertices:
                if vertex.color not in self._carriers[vertex].colors:
                    raise ValueError(
                        f"color {vertex.color} of {vertex!r} missing from its carrier"
                    )

    def __repr__(self) -> str:
        return f"Subdivision(base={self.base!r}, complex={self.complex!r})"

    def __reduce__(self):
        # Rebuild (and re-validate) from the defining data on unpickle.
        return (Subdivision, (self.base, self.complex, self._carriers))


def trivial_subdivision(base: SimplicialComplex) -> Subdivision:
    """The identity subdivision: each vertex is its own carrier."""
    carriers = {v: Simplex([v]) for v in base.vertices}
    return Subdivision(base, base, carriers)


def boundary_restriction(subdivision: Subdivision) -> SimplicialComplex | None:
    """The subdivided boundary: simplices carried by proper faces of the base tops.

    For a subdivided simplex ``A(s^n)`` this is ``boundary(A(s^n))``, the
    ``(n-1)``-sphere of Section 2.  Returns ``None`` for a vertex base.
    """
    base_tops = list(subdivision.base.maximal_simplices)
    boundary_faces: list[Simplex] = []
    for top in base_tops:
        boundary_faces.extend(top.facets())
    if not boundary_faces:
        return None
    # Collect every piece's maximal simplices and build the boundary complex
    # in one construction: the former chain of pairwise ``union`` calls
    # re-ran the maximal-antichain computation per piece (quadratic overall).
    pieces: list[Simplex] = []
    for face in set(boundary_faces):
        pieces.extend(subdivision.restrict_to_face(face).maximal_simplices)
    return SimplicialComplex(pieces)
