"""The bitset CSP kernel against its reference oracle.

The kernel (:mod:`repro.core.csp_kernel`) must be *extensionally identical*
to the naive object-level search on every instance: same verdict at every
level, and — because variable/value ordering is mirrored and backjumping is
pruning-only — the same first decision map on satisfiable levels.  Node
counts may differ (conflict-directed backjumping skips refuted subtrees),
which is exactly the speedup being purchased.
"""

from __future__ import annotations

import pytest

from repro.core.csp_kernel import compile_level, kernel_search, root_domain_chunks
from repro.core.solvability import (
    SearchOptions,
    SolvabilityStatus,
    solve_task,
    validate_decision_map,
)
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    chromatic_simplex_agreement_task,
    constant_task,
    identity_task,
    set_consensus_task,
)
from repro.topology.complex import SimplicialComplex
from repro.topology.standard_chromatic import (
    iterated_standard_chromatic_subdivision,
    standard_chromatic_subdivision,
)
from repro.topology.vertex import vertices_of


def _csass_task():
    base = SimplicialComplex.from_vertices(vertices_of(range(3)))
    return chromatic_simplex_agreement_task(standard_chromatic_subdivision(base))

KERNEL = SearchOptions(kernel=True)
NAIVE = SearchOptions(kernel=False)

# The n <= 3 task zoo; (factory, max_rounds) pairs keep every case under a
# few seconds even on the naive path (b <= 2 throughout).
EQUIVALENCE_GRID = [
    (lambda: identity_task(2), 1),
    (lambda: identity_task(3), 1),
    (lambda: constant_task(2), 1),
    (lambda: constant_task(3), 1),
    (lambda: binary_consensus_task(2), 2),
    (lambda: binary_consensus_task(3), 1),
    (lambda: set_consensus_task(2, 1), 1),
    (lambda: set_consensus_task(2, 2), 1),
    (lambda: set_consensus_task(3, 2), 1),
    (lambda: set_consensus_task(3, 3), 1),
    (lambda: approximate_agreement_task(2, 3), 2),
    (lambda: approximate_agreement_task(2, 5), 2),
    (lambda: approximate_agreement_task(3, 2), 1),
    (lambda: approximate_agreement_task(3, 3), 2),
    (_csass_task, 1),
]


class TestKernelNaiveEquivalence:
    @pytest.mark.parametrize("factory,max_rounds", EQUIVALENCE_GRID)
    def test_same_status_and_map(self, factory, max_rounds):
        kernel_result = solve_task(factory(), max_rounds, options=KERNEL)
        naive_result = solve_task(factory(), max_rounds, options=NAIVE)
        assert kernel_result.status is naive_result.status
        assert kernel_result.rounds == naive_result.rounds
        assert len(kernel_result.levels) == len(naive_result.levels)
        for kernel_level, naive_level in zip(
            kernel_result.levels, naive_result.levels
        ):
            assert kernel_level.satisfiable == naive_level.satisfiable
            assert kernel_level.exhausted and naive_level.exhausted
        if kernel_result.decision_map is not None:
            # Identical first-found map, and it validates on both paths.
            assert (
                kernel_result.decision_map.as_dict()
                == naive_result.decision_map.as_dict()
            )
            validate_decision_map(
                kernel_result.subdivision,
                factory(),
                kernel_result.decision_map,
            )

    @pytest.mark.parametrize(
        "options",
        [
            SearchOptions(False, True, True, True),
            SearchOptions(True, False, True, True),
            SearchOptions(True, True, False, True),
            SearchOptions(False, False, False, True),
        ],
        ids=["no-ac3", "no-fc", "no-adjacency", "none"],
    )
    def test_ablated_kernel_matches_ablated_naive(self, options):
        naive_options = SearchOptions(
            options.arc_consistency,
            options.forward_checking,
            options.adjacency_order,
            False,
        )
        for factory, max_rounds in [
            (lambda: approximate_agreement_task(2, 3), 2),
            (lambda: binary_consensus_task(2), 1),
            (lambda: set_consensus_task(3, 2), 1),
        ]:
            kernel_result = solve_task(factory(), max_rounds, options=options)
            naive_result = solve_task(factory(), max_rounds, options=naive_options)
            assert kernel_result.status is naive_result.status
            if kernel_result.decision_map is not None:
                assert (
                    kernel_result.decision_map.as_dict()
                    == naive_result.decision_map.as_dict()
                )


class TestKernelInternals:
    def test_compiled_level_shape(self):
        task = approximate_agreement_task(2, 3)
        subdivision = iterated_standard_chromatic_subdivision(task.input_complex, 1)
        compiled = compile_level(subdivision, task)
        assert not compiled.infeasible
        assert len(compiled.verts) == len(subdivision.complex.vertices)
        assert len(compiled.domains) == len(compiled.verts)
        for i, domain in enumerate(compiled.domains):
            assert domain == (1 << len(compiled.cands[i])) - 1
        # Every constraint's members index real vertices, masks cover domains.
        for vids, masks in zip(compiled.con_vars, compiled.con_masks):
            assert len(vids) >= 2
            assert len(masks) == len(vids)
            for position, i in enumerate(vids):
                assert len(masks[position]) == len(compiled.cands[i])

    def test_conflicts_and_backjumps_are_counted(self):
        # setcons(3,2) at b=1 is UNSAT and forces real backtracking.
        task = set_consensus_task(3, 2)
        subdivision = iterated_standard_chromatic_subdivision(task.input_complex, 1)
        compiled = compile_level(subdivision, task)
        mapping, stats = kernel_search(compiled, 2_000_000)
        assert mapping is None
        assert stats.exhausted
        assert stats.conflicts > 0
        assert stats.nodes > 0

    def test_budget_abort_reports_not_exhausted(self):
        task = set_consensus_task(3, 2)
        subdivision = iterated_standard_chromatic_subdivision(task.input_complex, 1)
        compiled = compile_level(subdivision, task)
        mapping, stats = kernel_search(compiled, 10)
        assert mapping is None
        assert not stats.exhausted
        assert stats.nodes == 11  # the aborting node is counted

    def test_root_domain_chunks_partition_the_domain(self):
        task = approximate_agreement_task(2, 5)
        subdivision = iterated_standard_chromatic_subdivision(task.input_complex, 1)
        compiled = compile_level(subdivision, task)
        for n_chunks in (1, 2, 3, 7):
            chunks = root_domain_chunks(
                compiled,
                arc_consistency=True,
                adjacency_order=True,
                n_chunks=n_chunks,
            )
            assert len(chunks) == n_chunks
            union = 0
            for chunk in chunks:
                assert union & chunk == 0  # disjoint
                union |= chunk
            reference = root_domain_chunks(
                compiled, arc_consistency=True, adjacency_order=True, n_chunks=1
            )[0]
            assert union == reference  # cover

    def test_chunked_searches_union_to_serial_verdict(self):
        task = approximate_agreement_task(2, 3)
        subdivision = iterated_standard_chromatic_subdivision(task.input_complex, 2)
        compiled = compile_level(subdivision, task)
        serial_mapping, _ = kernel_search(compiled, 2_000_000)
        assert serial_mapping is not None
        chunks = root_domain_chunks(
            compiled, arc_consistency=True, adjacency_order=True, n_chunks=2
        )
        first_found = None
        for chunk in chunks:
            mapping, stats = kernel_search(compiled, 2_000_000, root_restrict=chunk)
            assert stats.exhausted
            if mapping is not None and first_found is None:
                first_found = mapping
        assert first_found == serial_mapping


class TestBudgetAndParallelPaths:
    """UNKNOWN via the node budget, serial and parallel alike."""

    def test_serial_sweep_unknown(self):
        result = solve_task(set_consensus_task(3, 2), max_rounds=1, node_budget=5)
        assert result.status is SolvabilityStatus.UNKNOWN
        assert result.levels[-1].exhausted is False

    def test_parallel_sweep_unknown(self):
        result = solve_task(
            set_consensus_task(3, 2),
            max_rounds=1,
            node_budget=5,
            max_workers=2,
        )
        assert result.status is SolvabilityStatus.UNKNOWN
        assert any(not level.exhausted for level in result.levels)

    def test_single_level_split_unknown(self):
        # min_rounds == max_rounds triggers the within-level domain split.
        result = solve_task(
            set_consensus_task(3, 2),
            max_rounds=1,
            min_rounds=1,
            node_budget=5,
            max_workers=2,
        )
        assert result.status is SolvabilityStatus.UNKNOWN
        assert len(result.levels) == 1
        assert result.levels[0].exhausted is False

    def test_single_level_split_matches_serial_sat(self):
        serial = solve_task(
            approximate_agreement_task(2, 3), max_rounds=2, min_rounds=2
        )
        split = solve_task(
            approximate_agreement_task(2, 3),
            max_rounds=2,
            min_rounds=2,
            max_workers=2,
        )
        assert split.status is serial.status is SolvabilityStatus.SOLVABLE
        assert split.rounds == serial.rounds == 2
        assert split.decision_map.as_dict() == serial.decision_map.as_dict()

    def test_single_level_split_matches_serial_unsat(self):
        serial = solve_task(binary_consensus_task(2), max_rounds=1, min_rounds=1)
        split = solve_task(
            binary_consensus_task(2), max_rounds=1, min_rounds=1, max_workers=2
        )
        assert split.status is serial.status
        assert split.status is SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND
        assert split.levels[0].exhausted


class TestCacheHooks:
    def test_clear_intern_caches_clears_task_memos(self):
        from repro.core.task import clear_task_caches
        from repro.topology.interning import clear_intern_caches

        task = approximate_agreement_task(2, 3)
        solve_task(task, max_rounds=1, options=KERNEL)
        assert task._candidate_cache or task._projection_cache
        clear_intern_caches()
        assert not task._candidate_cache and not task._projection_cache
        # And the hook is idempotent / callable directly.
        assert clear_task_caches() >= 0

    def test_candidate_decisions_memo_returns_shared_list(self):
        task = set_consensus_task(2, 1)
        simplex = next(iter(task.input_complex.maximal_simplices))
        color = next(iter(simplex.colors))
        first = task.candidate_decisions(simplex, color)
        second = task.candidate_decisions(simplex, color)
        assert first is second
        task.clear_delta_caches()
        third = task.candidate_decisions(simplex, color)
        assert third == first and third is not first

    def test_pickled_task_drops_memos(self):
        import pickle

        task = approximate_agreement_task(2, 3)
        solve_task(task, max_rounds=1, options=KERNEL)
        assert len(task._compiled_levels) > 0
        clone = pickle.loads(pickle.dumps(task))
        assert clone._candidate_cache == {}
        assert clone._projection_cache == {}
        assert len(clone._compiled_levels) == 0
        assert clone == task


class TestExhaustionCertificate:
    def test_unsat_result_yields_certificate(self):
        from repro.core.impossibility import exhaustion_certificate

        result = solve_task(binary_consensus_task(2), max_rounds=2)
        certificate = exhaustion_certificate(result)
        assert certificate is not None
        assert certificate.kind == "exhaustive-search"
        assert len(certificate.checked_facts) == len(result.levels)

    def test_budget_stopped_result_yields_none(self):
        from repro.core.impossibility import exhaustion_certificate

        result = solve_task(set_consensus_task(3, 2), max_rounds=1, node_budget=5)
        assert exhaustion_certificate(result) is None

    def test_solvable_result_yields_none(self):
        from repro.core.impossibility import exhaustion_certificate

        result = solve_task(identity_task(2), max_rounds=1)
        assert exhaustion_certificate(result) is None

    def test_type_error_on_non_result(self):
        from repro.core.impossibility import exhaustion_certificate

        with pytest.raises(TypeError):
            exhaustion_certificate("not a result")
