"""Simplicial maps between complexes, with the paper's preservation checks.

Section 2 defines: a vertex map is *simplicial* when simplices map to
simplices; *color preserving* when it commutes with the coloring; *carrier
preserving* when it fixes carriers with respect to a common base complex.
Decision functions (Section 3.3) are simplicial maps from protocol complexes
to output complexes, so these checks are the backbone of the whole
characterization machinery.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex


class SimplicialMap:
    """A vertex map between two simplicial complexes.

    The constructor validates totality (every source vertex is mapped) and
    that image vertices belong to the target; *simpliciality* is validated
    separately via :meth:`is_simplicial` / :meth:`validate` so that search
    code can build partial candidates cheaply and check once.
    """

    __slots__ = ("source", "target", "_mapping")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        mapping: Mapping[Vertex, Vertex],
    ):
        missing = source.vertices - mapping.keys()
        if missing:
            sample = next(iter(missing))
            raise ValueError(f"mapping is not total: {len(missing)} unmapped, e.g. {sample!r}")
        for vertex in source.vertices:
            image = mapping[vertex]
            if image not in target.vertices:
                raise ValueError(f"image {image!r} of {vertex!r} is not a target vertex")
        self.source = source
        self.target = target
        self._mapping = {v: mapping[v] for v in source.vertices}

    # -- application -----------------------------------------------------------

    def __call__(self, vertex: Vertex) -> Vertex:
        return self._mapping[vertex]

    def image_of(self, simplex: Simplex) -> Simplex:
        """The image simplex (as a vertex set; may have lower dimension)."""
        return Simplex(self._mapping[v] for v in simplex)

    def image_vertices(self, simplex: Simplex) -> tuple[Vertex, ...]:
        """Images aligned with ``simplex.sorted_vertices()``, no Simplex built.

        The decision-map validator checks Δ-allowance for *every* simplex of
        a subdivision; for chromatic sources this color-aligned tuple can be
        tested against precomputed projection tables directly, skipping one
        ``Simplex`` interning per face on the reporting path.
        """
        mapping = self._mapping
        return tuple(mapping[v] for v in simplex.sorted_vertices())

    def images(self, vertices: Iterable[Vertex]) -> Iterator[Vertex]:
        """The images of ``vertices``, in order, looked up lazily.

        One C-level dictionary lookup per vertex: the decision-map
        validator reads a whole level's images this way on every call.
        """
        return map(self._mapping.__getitem__, vertices)

    def as_dict(self) -> dict[Vertex, Vertex]:
        return dict(self._mapping)

    def __repr__(self) -> str:
        return f"SimplicialMap({len(self._mapping)} vertices)"

    # -- the paper's predicate zoo -----------------------------------------------

    def is_simplicial(self) -> bool:
        """Every source simplex maps to a simplex of the target.

        Checking maximal simplices suffices: images of faces are faces of
        images, and complexes are closed under faces.
        """
        return all(self.image_of(m) in self.target for m in self.source.maximal_simplices)

    def is_color_preserving(self) -> bool:
        return all(v.color == image.color for v, image in self._mapping.items())

    def is_dimension_preserving(self) -> bool:
        """Images of simplices keep their dimension (no collapsing).

        For color-preserving maps between chromatic complexes this is
        automatic, but the check is exposed for the general case.
        """
        return all(
            self.image_of(m).dimension == m.dimension for m in self.source.maximal_simplices
        )

    def is_carrier_preserving(
        self,
        source_carrier: Callable[[Vertex], Simplex],
        target_carrier: Callable[[Vertex], Simplex],
        *,
        strict: bool = False,
    ) -> bool:
        """Carrier preservation with respect to a common base complex.

        ``source_carrier`` / ``target_carrier`` give each vertex's carrier in
        the base.  With ``strict=True`` this is the textbook equality
        ``carrier(v) == carrier(φ(v))``; by default we check the containment
        ``carrier(φ(v)) ⊆ carrier(v)``, which is the property the paper's
        algorithms actually need (outputs must not "leave" the face spanned
        by the participating processors) and the one that composes with
        solo-execution constraints.
        """
        for vertex, image in self._mapping.items():
            src = source_carrier(vertex)
            dst = target_carrier(image)
            if strict:
                if src != dst:
                    return False
            elif not dst.is_face_of(src):
                return False
        return True

    def validate(
        self,
        *,
        color_preserving: bool = True,
        carriers: tuple[Callable[[Vertex], Simplex], Callable[[Vertex], Simplex]] | None = None,
    ) -> None:
        """Raise ``ValueError`` describing the first violated property."""
        if not self.is_simplicial():
            offender = next(
                m for m in self.source.maximal_simplices if self.image_of(m) not in self.target
            )
            raise ValueError(f"map is not simplicial: image of {offender!r} is not a simplex")
        if color_preserving and not self.is_color_preserving():
            offender_vertex = next(
                v for v, img in self._mapping.items() if v.color != img.color
            )
            raise ValueError(f"map is not color preserving at {offender_vertex!r}")
        if carriers is not None and not self.is_carrier_preserving(*carriers):
            raise ValueError("map is not carrier preserving")

    # -- composition ----------------------------------------------------------------

    def compose(self, then: "SimplicialMap") -> "SimplicialMap":
        """The composite ``then ∘ self`` (apply ``self`` first)."""
        if then.source is not self.target and then.source != self.target:
            raise ValueError("composition mismatch: target of first != source of second")
        composed = {v: then(self(v)) for v in self.source.vertices}
        return SimplicialMap(self.source, then.target, composed)


def identity_map(complex_: SimplicialComplex) -> SimplicialMap:
    """The identity simplicial map on a complex."""
    return SimplicialMap(complex_, complex_, {v: v for v in complex_.vertices})


def constant_color_sections(
    source: SimplicialComplex, target: SimplicialComplex
) -> dict[int, list[Vertex]]:
    """Group target vertices by color; a helper for color-preserving search.

    Returns, for each color appearing in ``source``, the list of candidate
    target vertices of that color (deterministically ordered).
    """
    by_color: dict[int, list[Vertex]] = {}
    for color in sorted({v.color for v in source.vertices}):
        candidates = [v for v in target.vertices if v.color == color]
        by_color[color] = sorted(candidates, key=Vertex.sort_key)
    return by_color


def check_map_on_simplices(
    mapping: Mapping[Vertex, Vertex],
    simplices: Iterable[Simplex],
    target: SimplicialComplex,
) -> bool:
    """Do the (possibly partially mapped) simplices map into ``target``?

    Used by the backtracking search in :mod:`repro.core.solvability`:
    a partial assignment is consistent when the mapped portion of every
    touched simplex forms a simplex of the target.
    """
    for simplex in simplices:
        mapped = [mapping[v] for v in simplex if v in mapping]
        if mapped and Simplex(mapped) not in target:
            return False
    return True
