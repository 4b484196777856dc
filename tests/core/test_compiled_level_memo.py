"""Per-process memos on the miss path: one task per spec, one compiled level.

``resolve_task`` returns one memoized task per spec and ``compile_level``
memoizes its result per (task, level object).  A memo hit skips work; it
must never change an answer.  So this file checks three things.  The
search leaves a :class:`CompiledLevel` exactly as it found it.  A warm
memo answers like a process that starts after ``clear_intern_caches``.
And the memos hold one entry per distinct level or spec, no more.
"""

from __future__ import annotations

import pytest

from repro.core.csp_kernel import compile_level, kernel_search, root_domain_chunks
from repro.core.solvability import SolvabilityStatus, solve_task
from repro.models import (
    Adversary,
    KConcurrent,
    KSetConsensus,
    TResilient,
    compose_models,
)
from repro.service import registry
from repro.service.registry import resolve_task
from repro.topology.interning import clear_intern_caches
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision


@pytest.fixture(autouse=True)
def _private_sds_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SDS_CACHE_DIR", str(tmp_path / "sds-cache"))


def snapshot(compiled):
    """Every field of a compiled level, by value (vertices by identity)."""
    return (
        [id(vertex) for vertex in compiled.verts],
        [[id(c) for c in cands] for cands in compiled.cands],
        list(compiled.domains),
        list(compiled.con_vars),
        [[list(masks) for masks in positions] for positions in compiled.con_masks],
        list(compiled.con_full),
        [[(c, list(masks)) for c, masks in row] for row in compiled.incident],
        [[(w, list(supports)) for w, supports in row] for row in compiled.fc],
        [list(row) for row in compiled.neighbors],
        compiled.infeasible,
    )


#: (spec, rounds, node budget, expected outcome of the full search).
SEARCH_CASES = [
    (("approximate_agreement", (3, 2)), 1, 2_000_000, "sat"),
    (("set_consensus", (3, 3)), 1, 2_000_000, "sat"),
    (("set_consensus", (3, 2)), 1, 2_000_000, "unsat"),
    (("consensus", (2,)), 2, 2_000_000, "unsat"),
    (("set_consensus", (3, 2)), 1, 5, "budget-stopped"),
]

OPTION_GRID = [
    dict(arc_consistency=True, forward_checking=True, adjacency_order=True),
    dict(arc_consistency=False, forward_checking=False, adjacency_order=False),
]


def outcome_of(mapping, stats):
    if mapping is not None:
        return "sat"
    return "unsat" if stats.exhausted else "budget-stopped"


class TestCompiledLevelIsReadOnly:
    @pytest.mark.parametrize("spec,rounds,budget,expected", SEARCH_CASES)
    @pytest.mark.parametrize("options", OPTION_GRID)
    def test_search_twice_same_answer_same_level(
        self, spec, rounds, budget, expected, options
    ):
        task = resolve_task(*spec)
        level = iterated_standard_chromatic_subdivision(task.input_complex, rounds)
        compiled = compile_level(level, task)
        before = snapshot(compiled)

        first = kernel_search(compiled, budget, **options)
        second = kernel_search(compiled, budget, **options)

        assert outcome_of(*first) == expected
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert snapshot(compiled) == before
        assert compile_level(level, task) is compiled

    @pytest.mark.parametrize("spec,rounds,budget,expected", SEARCH_CASES)
    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    def test_every_root_slice_twice(self, spec, rounds, budget, expected, n_chunks):
        task = resolve_task(*spec)
        level = iterated_standard_chromatic_subdivision(task.input_complex, rounds)
        compiled = compile_level(level, task)
        before = snapshot(compiled)
        chunks = root_domain_chunks(
            compiled, arc_consistency=True, adjacency_order=True, n_chunks=n_chunks
        )
        assert chunks == root_domain_chunks(
            compiled, arc_consistency=True, adjacency_order=True, n_chunks=n_chunks
        )
        for chunk in chunks:
            first = kernel_search(compiled, budget, root_restrict=chunk)
            second = kernel_search(compiled, budget, root_restrict=chunk)
            assert first[0] == second[0]
            assert first[1] == second[1]
        assert snapshot(compiled) == before


#: ``repro zoo``'s tasks and round bounds, as registry specs.
ZOO = [
    ("identity", (2,), 1),
    ("constant", (3,), 1),
    ("consensus", (2,), 2),
    ("set_consensus", (3, 2), 1),
    ("set_consensus", (3, 3), 1),
    ("approximate_agreement", (2, 3), 2),
    ("approximate_agreement", (2, 9), 2),
    ("approximate_agreement", (3, 2), 1),
    ("participating_set", (3,), 1),
    ("graph_path", (3,), 1),
    ("graph_cycle", (5,), 1),
]

MODELS = [
    None,
    TResilient(0),
    TResilient(1),
    KConcurrent(1),
    KSetConsensus(2),
    Adversary(3),
    compose_models(TResilient(1), KSetConsensus(2)),
]


def answer(task, max_rounds, model):
    """Verdict, witnessing rounds, first map and level counters of a solve."""
    result = solve_task(task, max_rounds, node_budget=200_000, model=model)
    levels = [
        (
            report.rounds,
            report.satisfiable,
            report.nodes_explored,
            report.vertices,
            report.exhausted,
            report.conflicts,
            report.backjumps,
        )
        for report in result.levels
    ]
    mapping = None if result.decision_map is None else result.decision_map.as_dict()
    return result.status, result.rounds, mapping, levels


class TestMemoHitsChangeNoAnswer:
    @pytest.mark.parametrize("name,args,max_rounds", ZOO)
    def test_warm_memos_answer_like_a_cleared_process(self, name, args, max_rounds):
        task = resolve_task(name, args)
        for model in MODELS:
            answer(task, max_rounds, model)  # fill the memos
        warm = [answer(task, max_rounds, model) for model in MODELS]
        assert len(task._compiled_levels) > 0

        clear_intern_caches()
        fresh = resolve_task(name, args)
        assert fresh is not task
        assert len(fresh._compiled_levels) == 0
        cold = [answer(fresh, max_rounds, model) for model in MODELS]
        assert warm == cold

    def test_solve_after_a_reset_that_reinterns_old_faces(self):
        old = iterated_standard_chromatic_subdivision(
            resolve_task("approximate_agreement", (2, 3)).input_complex, 1
        ).complex
        clear_intern_caches()
        # Enumerating the old faces re-interns them, so a fresh simplex of
        # equal vertices comes back holding the older vertex objects.
        for dimension in range(old.dimension + 1):
            list(old.simplices(dimension))
        result = solve_task(resolve_task("approximate_agreement", (2, 3)), 1)
        assert result.status is SolvabilityStatus.SOLVABLE
        assert result.rounds == 1

    def test_repeated_solves_keep_one_compiled_level_per_level(self):
        task = resolve_task("consensus", (2,))
        task.clear_delta_caches()
        model = TResilient(1)
        for _ in range(3):
            result = solve_task(task, 2, min_rounds=0)
            assert [report.rounds for report in result.levels] == [0, 1, 2]
        assert len(task._compiled_levels) == 3
        for _ in range(3):
            solve_task(task, 1, min_rounds=0, model=model)
        assert len(task._compiled_levels) == 5  # + the model's levels 0 and 1

    def test_level_zero_is_one_object(self):
        task = resolve_task("identity", (2,))
        first = iterated_standard_chromatic_subdivision(task.input_complex, 0)
        assert iterated_standard_chromatic_subdivision(task.input_complex, 0) is first

    def test_explicit_vertex_order_is_not_memoized(self):
        task = resolve_task("set_consensus", (3, 3))
        task.clear_delta_caches()
        level = iterated_standard_chromatic_subdivision(task.input_complex, 1)
        order = sorted(level.complex.vertices, key=lambda v: v.sort_key())
        ordered = compile_level(level, task, vertex_order=order)
        assert len(task._compiled_levels) == 0
        assert compile_level(level, task, vertex_order=order) is not ordered


class TestTaskMemo:
    def test_same_object_until_intern_reset(self):
        first = resolve_task("set_consensus", (3, 2))
        assert resolve_task("set_consensus", [3, 2]) is first
        clear_intern_caches()
        assert resolve_task("set_consensus", (3, 2)) is not first

    def test_lru_evicts_at_its_bound(self):
        bound = registry._TASK_MEMO_SIZE
        oldest = resolve_task("identity", (2,))
        recent = resolve_task("identity", (3,))
        for resolution in range(2, bound):  # bound - 2 more specs: full
            resolve_task("approximate_agreement", (2, resolution))
        assert registry._memoized_task.cache_info().currsize == bound
        assert resolve_task("identity", (2,)) is oldest  # now most recent
        resolve_task("approximate_agreement", (2, bound))  # one past the bound
        assert registry._memoized_task.cache_info().currsize == bound
        assert resolve_task("identity", (2,)) is oldest
        assert resolve_task("identity", (3,)) is not recent  # the LRU entry went
