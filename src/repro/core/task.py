"""Tasks: input/output complexes and the relation Δ (Section 3.2).

A task over ``n + 1`` processors is a triple ``(Iⁿ, Oⁿ, Δ)``: chromatic
complexes of input and output vertices ``(P_i, val)``, and a point-to-set
map associating each input simplex with the output simplices that may result
when exactly its processors participate.  Our ``Δ`` stores *maximal allowed
output tuples* per input simplex; an output simplex is allowed when it is a
face of a stored tuple, which is the downward closure the solvability
condition of Proposition 3.1 quantifies over.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Mapping

from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

# Every live task with a Δ-derived cache, keyed by identity (frozen
# dataclasses compare by value, and equal-but-distinct tasks each own a
# cache), so :func:`clear_task_caches` — hooked into
# :func:`repro.topology.interning.clear_intern_caches` — can drop cached
# vertices/simplices together with the intern tables they were built against.
_TASK_REGISTRY: "dict[int, weakref.ref[Task]]" = {}


def _register_task(task: "Task") -> None:
    key = id(task)
    _TASK_REGISTRY[key] = weakref.ref(task, lambda _ref, key=key: _TASK_REGISTRY.pop(key, None))


def clear_task_caches() -> int:
    """Clear the Δ-derived memos of every live task; returns tasks touched.

    The caches hold interned :class:`Vertex`/:class:`Simplex` objects, so
    they must not outlive an intern-table reset —
    :func:`repro.topology.interning.clear_intern_caches` calls this hook.
    """
    cleared = 0
    for ref in list(_TASK_REGISTRY.values()):
        task = ref()
        if task is not None:
            task.clear_delta_caches()
            cleared += 1
    return cleared


@dataclass(frozen=True)
class Task:
    """A decision task ``(I, O, Δ)``.

    Parameters
    ----------
    name:
        Human-readable identifier (used in reports and benchmarks).
    input_complex / output_complex:
        Chromatic complexes whose vertices are ``Vertex(pid, value)``.
    delta:
        For each simplex of the input complex, the *non-empty* set of
        allowed output simplices; each allowed output's colors must equal
        the input simplex's colors (the paper's ``X(s_i) = X(s_o)``).
    """

    name: str
    input_complex: SimplicialComplex
    output_complex: SimplicialComplex
    delta: Mapping[Simplex, frozenset[Simplex]] = field(hash=False)

    def __post_init__(self) -> None:
        # Δ-derived memos (candidate decisions, projected tuples).  The
        # dataclass is frozen, so attach them via object.__setattr__; they are
        # derived data only and excluded from eq/hash (non-field attributes).
        object.__setattr__(self, "_candidate_cache", {})
        object.__setattr__(self, "_projection_cache", {})
        object.__setattr__(self, "_kernel_table_cache", {})
        # level Subdivision -> CompiledLevel (repro.core.csp_kernel) and ->
        # ValidationPlan (repro.core.solvability); weak keys, so an entry
        # lives exactly as long as its level object.
        object.__setattr__(self, "_compiled_levels", weakref.WeakKeyDictionary())
        object.__setattr__(self, "_validation_plans", weakref.WeakKeyDictionary())
        _register_task(self)
        if not self.input_complex.is_chromatic():
            raise ValueError(f"task {self.name}: input complex is not chromatic")
        if not self.output_complex.is_chromatic():
            raise ValueError(f"task {self.name}: output complex is not chromatic")
        for input_simplex in self.input_complex.simplices():
            allowed = self.delta.get(input_simplex)
            if not allowed:
                raise ValueError(
                    f"task {self.name}: Δ undefined or empty on {input_simplex!r}"
                )
            for output_simplex in allowed:
                if output_simplex not in self.output_complex:
                    raise ValueError(
                        f"task {self.name}: Δ({input_simplex!r}) contains "
                        f"{output_simplex!r} which is not an output simplex"
                    )
                if output_simplex.colors != input_simplex.colors:
                    raise ValueError(
                        f"task {self.name}: colors of {output_simplex!r} do not "
                        f"match {input_simplex!r}"
                    )

    # -- the solvability-facing queries -------------------------------------------

    def allows(self, input_simplex: Simplex, output_simplex: Simplex) -> bool:
        """Is ``output_simplex`` a face of an allowed tuple for ``input_simplex``?

        This is the condition Proposition 3.1 imposes on a decision map:
        ``µ(s) ∈ Δ(carrier(s))`` read with downward closure (a simplex deep
        inside a subdivision has fewer colors than its carrier, so its image
        is a *face* of a full allowed tuple).
        """
        allowed = self.delta.get(input_simplex)
        if allowed is None:
            raise KeyError(f"Δ undefined on {input_simplex!r}")
        return any(output_simplex.is_face_of(tuple_) for tuple_ in allowed)

    def allowed_outputs(self, input_simplex: Simplex) -> frozenset[Simplex]:
        allowed = self.delta.get(input_simplex)
        if allowed is None:
            raise KeyError(f"Δ undefined on {input_simplex!r}")
        return allowed

    def candidate_decisions(self, input_simplex: Simplex, color: int) -> list[Vertex]:
        """Output vertices of ``color`` appearing in some allowed tuple.

        Memoized per ``(input_simplex, color)``: the edge-table and kernel
        compilers ask for the same carrier/color pairs for thousands of
        subdivision vertices.  The returned list is shared — treat it as
        immutable.  :meth:`clear_delta_caches` / :func:`clear_task_caches`
        reset the memo (hooked into ``clear_intern_caches``).

        Every memo write on a task is first-writer-wins (``setdefault``):
        threads sharing a task all get the one stored list, whose ``id()``
        keys ``_kernel_table_cache``.  A losing thread's list would be
        orphaned, and its ``id()`` could be reused after it is freed.
        """
        key = (input_simplex, color)
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        seen: set[Vertex] = set()
        for tuple_ in self.allowed_outputs(input_simplex):
            for vertex in tuple_:
                if vertex.color == color:
                    seen.add(vertex)
        return self._candidate_cache.setdefault(key, sorted(seen, key=Vertex.sort_key))

    def projected_tuples(
        self, input_simplex: Simplex, colors: tuple[int, ...]
    ) -> tuple[tuple[Vertex, ...], ...]:
        """Δ(``input_simplex``) projected onto an ordered color profile.

        Each allowed tuple is chromatic with colors equal to the input
        simplex's colors, so projecting onto ``colors ⊆ colors(input)``
        yields one output vertex per requested color; the result is the
        deduplicated, deterministically ordered set of those projections.
        A partial image on a simplex with this carrier is Δ-allowed exactly
        when its color-aligned vertex tuple matches some projection on the
        assigned coordinates — the table the CSP kernel compiles into
        bitmasks.  Memoized per ``(input_simplex, colors)``.
        """
        key = (input_simplex, colors)
        cached = self._projection_cache.get(key)
        if cached is not None:
            return cached[0]
        rows: dict[tuple[Vertex, ...], None] = {}
        for tuple_ in sorted(
            self.allowed_outputs(input_simplex),
            key=lambda t: tuple(v.sort_key() for v in t.sorted_vertices()),
        ):
            by_color = {vertex.color: vertex for vertex in tuple_}
            try:
                rows[tuple(by_color[c] for c in colors)] = None
            except KeyError:
                continue  # tuple does not cover the profile (never for faces)
        result = tuple(rows)
        return self._projection_cache.setdefault(key, (result, frozenset(result)))[0]

    def allows_projection(
        self, input_simplex: Simplex, colors: tuple[int, ...], row: tuple[Vertex, ...]
    ) -> bool:
        """O(1) membership form of :meth:`allows` for color-aligned tuples."""
        self.projected_tuples(input_simplex, colors)
        return row in self._projection_cache[(input_simplex, colors)][1]

    def clear_delta_caches(self) -> None:
        """Drop this task's memoized Δ-derived tables (see ``clear_task_caches``).

        Includes the CSP kernel's compiled tuple tables
        (``_kernel_table_cache``): those are keyed by interned carrier
        simplices — possibly thawed from packed arrays — plus ``id()``s of
        the candidate lists in ``_candidate_cache``, so letting them outlive
        either an intern-table reset or the candidate memos would serve
        stale (or colliding) tables.  The compiled levels
        (``_compiled_levels``, with their search prologues) hold the same
        candidate lists and interned vertices, and the validation plans
        (``_validation_plans``) hold interned vertices, so they go too.
        """
        self._candidate_cache.clear()
        self._projection_cache.clear()
        self._kernel_table_cache.clear()
        self._compiled_levels.clear()
        self._validation_plans.clear()

    # Ship tasks to process pools without their memo tables (workers rebuild
    # them lazily against their own intern tables).
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_candidate_cache"] = {}
        state["_projection_cache"] = {}
        state["_kernel_table_cache"] = {}
        del state["_compiled_levels"]  # weak mappings: rebuilt on unpickle
        del state["_validation_plans"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_compiled_levels", weakref.WeakKeyDictionary())
        object.__setattr__(self, "_validation_plans", weakref.WeakKeyDictionary())
        _register_task(self)

    @property
    def n_processes(self) -> int:
        return max(self.input_complex.colors) + 1

    def restrict_to_participants(self, colors) -> "Task":
        """The subtask seen by a subset of the processors.

        Inputs/outputs/Δ induced on the given colors.  Wait-free
        solvability is inherited downward: a decision map for the full task
        restricts to one for the subtask (``SDS^b`` of a subcomplex is a
        subcomplex of ``SDS^b``), a property the tests check extensionally
        through the solver.
        """
        wanted = frozenset(colors)
        if not wanted <= self.input_complex.colors:
            raise ValueError(f"{sorted(wanted)} are not all input colors")
        input_restricted = self.input_complex.induced_on_colors(wanted)
        output_restricted = self.output_complex.induced_on_colors(wanted)
        if input_restricted is None or output_restricted is None:
            raise ValueError("restriction produced an empty complex")
        new_delta: dict[Simplex, frozenset[Simplex]] = {}
        for input_simplex in input_restricted.simplices():
            allowed: set[Simplex] = set()
            for tuple_ in self.delta.get(input_simplex, ()):  # same simplex set
                allowed.add(tuple_)
            if not allowed:
                # The input simplex exists only as a face of bigger inputs:
                # project the bigger inputs' tuples.
                for big, tuples in self.delta.items():
                    if input_simplex.is_face_of(big):
                        for tuple_ in tuples:
                            projected = tuple_.restrict_to_colors(
                                input_simplex.colors
                            )
                            if projected is not None:
                                allowed.add(projected)
            new_delta[input_simplex] = frozenset(allowed)
        return Task(
            name=f"{self.name}|{sorted(wanted)}",
            input_complex=input_restricted,
            output_complex=output_restricted,
            delta=new_delta,
        )

    def validate_outputs(
        self, inputs: Mapping[int, object], decisions: Mapping[int, object]
    ) -> bool:
        """Check a concrete run: did the deciders produce an allowed tuple?

        ``inputs`` maps participating pids to input values, ``decisions``
        maps *decided* pids to output values (a subset of participants: the
        paper only requires the partial output tuple to extend to an allowed
        one).
        """
        input_simplex = Simplex(Vertex(pid, value) for pid, value in inputs.items())
        if input_simplex not in self.input_complex:
            raise ValueError(f"{input_simplex!r} is not a simplex of the input complex")
        if not decisions:
            return True
        output_simplex = Simplex(
            Vertex(pid, value) for pid, value in decisions.items()
        )
        if output_simplex not in self.output_complex:
            return False
        return self.allows(input_simplex, output_simplex)


def relabel_task(task: Task, permutation: Mapping[int, int]) -> Task:
    """The task with processors renamed by ``permutation``.

    Tasks are anonymous up to processor ids, so solvability must be
    invariant under this action — a property the cross-validation tests
    exercise against the solver (any asymmetry would expose an id-dependent
    bug in the SDS construction or the search).
    """
    from repro.topology.chromatic import relabel_colors

    def relabel_simplex(simplex: Simplex) -> Simplex:
        return Simplex(
            Vertex(permutation.get(v.color, v.color), v.payload) for v in simplex
        )

    new_delta = {
        relabel_simplex(input_simplex): frozenset(
            relabel_simplex(t) for t in tuples
        )
        for input_simplex, tuples in task.delta.items()
    }
    return Task(
        name=f"{task.name}·π",
        input_complex=relabel_colors(task.input_complex, permutation),
        output_complex=relabel_colors(task.output_complex, permutation),
        delta=new_delta,
    )


def delta_from_rule(
    input_complex: SimplicialComplex,
    rule,
) -> dict[Simplex, frozenset[Simplex]]:
    """Build Δ by applying ``rule(input_simplex) -> iterable[Simplex]``.

    A convenience used by every task constructor in :mod:`repro.tasks`.
    """
    return {
        input_simplex: frozenset(rule(input_simplex))
        for input_simplex in input_complex.simplices()
    }
