"""The decision-map validator's per-level Δ plan, against the face loop it replaced.

``validate_decision_map`` checks ``µ(s) ∈ Δ(carrier(s))`` on every face of
a level through a plan built once per (task, level object).
:func:`oracle_validate` is the check as it was before the plan: one
projection lookup per face, in face order.  On single-vertex remappings of
every solved map of the zoo × {iis + six models} grid at ``b ≤ 2``, the two
must agree on accepting and on the error message.  The plan memo must live
exactly as long as the level and the task's Δ memos.
"""

from __future__ import annotations

import pickle
import sys
import threading
import weakref
from collections import Counter

import pytest

from repro.core.csp_kernel import compile_level, search_prologue
from repro.core.solvability import (
    SolvabilityStatus,
    solve_task,
    validate_decision_map,
    validation_plan,
)
from repro.models.base import ModelRestrictionEmpty
from repro.obs import capture
from repro.service.registry import resolve_task
from repro.topology.interning import clear_intern_caches
from repro.topology.maps import SimplicialMap
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex
from tests.core.test_compiled_level_memo import MODELS, ZOO


@pytest.fixture(autouse=True)
def _private_sds_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SDS_CACHE_DIR", str(tmp_path / "sds-cache"))


def oracle_validate(subdivision, task, decision_map) -> None:
    """The per-face Δ check: every simplex, one projection lookup each."""
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


def outcome(check, subdivision, task, decision_map) -> str | None:
    """``None`` when ``check`` accepts the map, else its error message."""
    try:
        check(subdivision, task, decision_map)
    except ValueError as exc:
        return str(exc)
    return None


def solved_levels(task, bound):
    """(level, map) for every satisfiable level ``b ≤ bound`` of every model."""
    for model in MODELS:
        for rounds in range(bound + 1):
            try:
                result = solve_task(task, rounds, min_rounds=rounds, model=model)
            except ModelRestrictionEmpty:
                continue
            if result.status is SolvabilityStatus.SOLVABLE:
                yield result.subdivision, result.decision_map


def single_vertex_remaps(task, level, decision_map):
    """The map with one vertex sent to another output vertex of its color."""
    by_color: dict[int, list[Vertex]] = {}
    for vertex in sorted(task.output_complex.vertices, key=Vertex.sort_key):
        by_color.setdefault(vertex.color, []).append(vertex)
    mapping = decision_map.as_dict()
    for vertex in sorted(level.complex.vertices, key=Vertex.sort_key):
        for image in by_color[vertex.color]:
            if image != mapping[vertex]:
                yield SimplicialMap(
                    level.complex, task.output_complex, {**mapping, vertex: image}
                )


class TestPlanAgreesWithTheFaceLoop:
    @pytest.mark.parametrize("name,args,bound", ZOO)
    def test_single_vertex_remaps(self, name, args, bound):
        task = resolve_task(name, args)
        remaps = rejected = 0
        for level, solved in solved_levels(task, bound):
            assert outcome(validate_decision_map, level, task, solved) is None
            assert outcome(oracle_validate, level, task, solved) is None
            for remapped in single_vertex_remaps(task, level, solved):
                want = outcome(oracle_validate, level, task, remapped)
                assert outcome(validate_decision_map, level, task, remapped) == want
                remaps += 1
                rejected += want is not None
        # ``constant`` has one output vertex per color, so nothing to remap.
        assert rejected > 0 or remaps == 0

    @pytest.mark.parametrize("name,args,bound", ZOO)
    def test_plan_holds_every_face_once(self, name, args, bound):
        """No face of any dimension is skipped, implied or repeated."""
        task = resolve_task(name, args)
        for level, _solved in solved_levels(task, bound):
            plan = validation_plan(level, task)
            positions = list(range(len(plan.vertices)))
            planned = Counter()
            for arity, getter, _allowed in plan.groups:
                for row in zip(*[iter(getter(positions))] * arity):
                    planned[Simplex(plan.vertices[i] for i in row)] += 1
            assert planned == Counter(level.complex.simplices())

    def test_some_remaps_are_accepted(self):
        task = resolve_task("approximate_agreement", (2, 9))
        accepted = [
            (level, remapped)
            for level, solved in solved_levels(task, 2)
            for remapped in single_vertex_remaps(task, level, solved)
            if outcome(oracle_validate, level, task, remapped) is None
        ]
        assert accepted
        for level, remapped in accepted:
            assert outcome(validate_decision_map, level, task, remapped) is None

    def test_solo_vertex_faces_are_checked(self):
        """Six remappings pass every top's Δ check and fail only at a vertex."""
        task = resolve_task("set_consensus", (3, 3))
        result = solve_task(task, 0)
        level, solved = result.subdivision, result.decision_map

        def top_allowed(top, decision_map):
            colors = tuple(v.color for v in top.sorted_vertices())
            return task.allows_projection(
                level.carrier_of(top), colors, decision_map.image_vertices(top)
            )

        tops_only = [
            remapped
            for remapped in single_vertex_remaps(task, level, solved)
            if all(top_allowed(top, remapped) for top in level.complex.maximal_simplices)
        ]
        assert len(tops_only) == 6
        for remapped in tops_only:
            message = outcome(validate_decision_map, level, task, remapped)
            assert message is not None
            assert message == outcome(oracle_validate, level, task, remapped)


class _UnreferenceableLevel:
    """A level object that takes no weak reference (no ``__weakref__`` slot)."""

    __slots__ = ("complex", "_level")

    def __init__(self, level):
        self.complex = level.complex
        self._level = level

    def carrier_of(self, simplex):
        return self._level.carrier_of(simplex)


def solved(name, args, rounds):
    task = resolve_task(name, args)
    result = solve_task(task, rounds, min_rounds=rounds)
    assert result.status is SolvabilityStatus.SOLVABLE
    return task, result.subdivision, result.decision_map


def first_rejected(task, level, decision_map):
    return next(
        remapped
        for remapped in single_vertex_remaps(task, level, decision_map)
        if outcome(oracle_validate, level, task, remapped) is not None
    )


class TestPlanMemo:
    def test_one_plan_per_level_until_intern_reset(self):
        task, level, decision_map = solved("approximate_agreement", (2, 3), 1)
        plan = validation_plan(level, task)
        assert validation_plan(level, task) is plan
        assert task._validation_plans.get(level) is plan

        clear_intern_caches()
        assert len(task._validation_plans) == 0
        fresh, fresh_level, fresh_map = solved("approximate_agreement", (2, 3), 1)
        assert fresh is not task
        rebuilt = validation_plan(fresh_level, fresh)
        assert rebuilt is not plan
        assert fresh._validation_plans.get(fresh_level) is rebuilt
        assert outcome(validate_decision_map, fresh_level, fresh, fresh_map) is None

    def test_clear_delta_caches_drops_plans(self):
        task, level, _decision_map = solved("approximate_agreement", (2, 3), 1)
        assert len(task._validation_plans) > 0
        task.clear_delta_caches()
        assert len(task._validation_plans) == 0

    def test_pickled_task_carries_no_plans(self):
        task, level, decision_map = solved("approximate_agreement", (3, 2), 1)
        assert len(task._validation_plans) > 0
        assert "_validation_plans" not in task.__getstate__()
        clone = pickle.loads(pickle.dumps(task))
        assert len(clone._validation_plans) == 0
        witness = SimplicialMap(level.complex, clone.output_complex, decision_map.as_dict())
        assert outcome(validate_decision_map, level, clone, witness) is None
        assert len(clone._validation_plans) == 1

    def test_level_without_weakref_support_is_not_memoized(self):
        task, level, decision_map = solved("approximate_agreement", (2, 3), 1)
        wrapped = _UnreferenceableLevel(level)
        with pytest.raises(TypeError):
            weakref.ref(wrapped)
        task.clear_delta_caches()
        assert outcome(validate_decision_map, wrapped, task, decision_map) is None
        broken = first_rejected(task, level, decision_map)
        message = outcome(validate_decision_map, wrapped, task, broken)
        assert message is not None
        assert message == outcome(oracle_validate, level, task, broken)
        assert len(task._validation_plans) == 0

    def test_counter_counts_plan_builds_only(self):
        task, level, decision_map = solved("approximate_agreement", (2, 9), 2)
        task.clear_delta_caches()
        with capture() as session:
            for _ in range(3):
                validate_decision_map(level, task, decision_map)
            assert session.metrics.value("solvability.validation_plans") == 1
            task.clear_delta_caches()
            validate_decision_map(level, task, decision_map)
            assert session.metrics.value("solvability.validation_plans") == 2

    def test_threads_share_one_plan_and_one_prologue(self):
        """Racing first writers all end up holding the one stored entry."""
        task, level, decision_map = solved("approximate_agreement", (3, 2), 1)
        task.clear_delta_caches()
        compiled = compile_level(level, task)
        workers = 8
        barrier = threading.Barrier(workers)
        held = []

        def work():
            barrier.wait(timeout=60)
            plan = validation_plan(level, task)
            prologue = search_prologue(compiled, True, True)
            validate_decision_map(level, task, decision_map)
            held.append((plan, prologue))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(held) == workers
        plan, prologue = held[0]
        assert all(p is plan and q is prologue for p, q in held)
        assert task._validation_plans.get(level) is plan
        assert compiled.prologues[(True, True)] is prologue
