"""The solver's model substrate: restricted levels straight from the orbit store.

``iterated_standard_chromatic_subdivision(..., model=m)`` loads or builds
the model's subcomplex of ``SDS^b(I)`` orbit-pruned and never touches the
full level.  The object-level filter
(:func:`repro.models.reference.restrict_subdivision` over the full level)
stays as the oracle: the two must carve the same complex with the same
carriers, and ``solve_task`` on the new substrate must reproduce the
build-then-filter route's verdicts, first maps and search statistics.
"""

import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solvability import (
    SearchOptions,
    SolvabilityStatus,
    _search_map,
    solve_task,
)
from repro.models import (
    Adversary,
    KConcurrent,
    KSetConsensus,
    TResilient,
    compose_models,
    parse_model,
    resolve_model,
)
from repro.models.base import ModelRestrictionEmpty
from repro.models.packed import ensure_restricted
from repro.models.reference import restrict_subdivision
from repro.service.registry import resolve_task
from repro.service.worker import warm_substrate
from repro.tasks import binary_consensus_task
from repro.topology import sds_cache
from repro.topology import standard_chromatic
from repro.topology.compact import CompactComplex
from repro.topology.complex import SimplicialComplex
from repro.topology.simplex import Simplex
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision
from repro.topology.vertex import Vertex
from tests.strategies import chromatic_complexes


@pytest.fixture(autouse=True)
def _fresh_substrate(tmp_path, monkeypatch):
    """A private cache directory and empty level memos for every test."""
    monkeypatch.setenv("REPRO_SDS_CACHE_DIR", str(tmp_path / "sds-cache"))
    monkeypatch.setattr(standard_chromatic, "_ITERATED_MEMO", {})
    monkeypatch.setattr(standard_chromatic, "_RESTRICTED_MEMO", {})


def build_then_filter(task, rounds, model, node_budget=200_000):
    """The pre-store route, kept as the oracle: full level, object filter, search."""
    full = iterated_standard_chromatic_subdivision(task.input_complex, rounds)
    level = restrict_subdivision(full, rounds, model)
    mapping, nodes, exhausted, conflicts, backjumps = _search_map(
        level, task, node_budget, SearchOptions()
    )
    counters = (
        rounds,
        mapping is not None,
        nodes,
        len(level.complex.vertices),
        exhausted,
        conflicts,
        backjumps,
    )
    return mapping, counters


def oracle_solve(task, max_rounds, model):
    """``solve_task``'s level sweep over :func:`build_then_filter`."""
    levels = []
    budget_hit = False
    for rounds in range(max_rounds + 1):
        mapping, counters = build_then_filter(task, rounds, model)
        levels.append(counters)
        if mapping is not None:
            return SolvabilityStatus.SOLVABLE, rounds, mapping, levels
        budget_hit |= not counters[4]
    status = (
        SolvabilityStatus.UNKNOWN
        if budget_hit
        else SolvabilityStatus.UNSOLVABLE_UP_TO_BOUND
    )
    return status, None, None, levels


def counters_of(report):
    return (
        report.rounds,
        report.satisfiable,
        report.nodes_explored,
        report.vertices,
        report.exhausted,
        report.conflicts,
        report.backjumps,
    )


def model_pool():
    return [
        TResilient(0),
        TResilient(1),
        KConcurrent(1),
        KSetConsensus(2),
        Adversary(3),
        compose_models(TResilient(1), KSetConsensus(2)),
    ]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(0, 3), b=st.integers(0, 2))
def test_restricted_level_equals_the_object_filter(data, n, b):
    max_tops = 1 if (n, b) == (3, 2) else 2  # keep the full oracle level small
    base = data.draw(
        chromatic_complexes(colors=tuple(range(n + 1)), max_tops=max_tops), label="base"
    )
    model = data.draw(st.sampled_from(model_pool()), label="model")
    full = iterated_standard_chromatic_subdivision(base, b)
    try:
        oracle = restrict_subdivision(full, b, model)
    except ModelRestrictionEmpty:
        with pytest.raises(ModelRestrictionEmpty):
            iterated_standard_chromatic_subdivision(base, b, model=model)
        return
    level = iterated_standard_chromatic_subdivision(base, b, model=model)
    assert level.base == base
    assert level.complex.vertices == oracle.complex.vertices
    assert level.complex.maximal_simplices == oracle.complex.maximal_simplices
    for vertex in level.complex.vertices:
        assert level.carrier(vertex) == oracle.carrier(vertex)
    for top in level.complex.maximal_simplices:
        assert level.carrier_of(top) == oracle.carrier_of(top)
    # Memoized per process: the second ask is the same object.
    assert iterated_standard_chromatic_subdivision(base, b, model=model) is level


def test_participation_orphans_are_not_level_vertices():
    """Vertices only dropped runs cover are instantiated, then left out."""
    triangle = Simplex(Vertex(color, 0) for color in range(3))
    edge = Simplex([Vertex(0, 0), Vertex(1, 1)])
    base = SimplicialComplex([triangle, edge])
    model = TResilient(0)  # the edge's runs have too few participants
    raw, _outcome = ensure_restricted(*standard_chromatic._packed_base(base), 1, model)
    level = iterated_standard_chromatic_subdivision(base, 1, model=model)
    oracle = restrict_subdivision(iterated_standard_chromatic_subdivision(base, 1), 1, model)
    assert len(level.complex.vertices) < raw.vertex_count
    assert level.complex.vertices == oracle.complex.vertices
    assert level.complex.maximal_simplices == oracle.complex.maximal_simplices


#: ``repro zoo``'s tasks and round bounds, as registry specs (tasks are built
#: inside the test, after any intern-table reset an earlier test made).
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


@pytest.mark.parametrize("name,args,max_rounds", ZOO)
def test_solve_task_matches_build_then_filter_on_the_zoo(name, args, max_rounds):
    task = resolve_task(name, args)
    for model in model_pool():
        status, rounds, mapping, levels = oracle_solve(task, max_rounds, model)
        result = solve_task(task, max_rounds, node_budget=200_000, model=model)
        assert result.status is status, model.fingerprint
        assert result.rounds == rounds, model.fingerprint
        assert [counters_of(report) for report in result.levels] == levels
        if mapping is not None:
            assert result.decision_map.as_dict() == mapping, model.fingerprint


def test_model_b3_query_never_builds_the_full_level():
    """The (4-process, b=3) t_resilient(1) query reads only its restricted store."""
    task = resolve_task("set_consensus", (4, 3))
    result = solve_task(task, 3, min_rounds=3, model=resolve_model("t_resilient", (1,)))
    assert (result.status, result.rounds) == (SolvabilityStatus.SOLVABLE, 3)
    assert result.levels[0].vertices == 400
    assert not standard_chromatic._ITERATED_MEMO  # no full level, at any depth
    frozen = CompactComplex.freeze(task.input_complex)
    identity_key = sds_cache.structure_key(tuple(frozen.colors), tuple(frozen.tops()), 3)
    assert not sds_cache._entry_path(sds_cache.cache_dir(), identity_key).exists()
    assert set(sds_cache.cache_info()["models"]) == {"t_resilient-1"}


def test_model_warm_writes_no_identity_entry():
    assert warm_substrate("set_consensus", (3, 2), 2, ("t_resilient", (1,)))
    info = sds_cache.cache_info()
    assert info["entries"] == 1
    assert set(info["models"]) == {"t_resilient-1"}
    # An empty restriction is still a successful warm, and stores nothing.
    assert warm_substrate("consensus", (2,), 1, ("adversary", (4,)))
    assert sds_cache.cache_info()["entries"] == 1


def test_a_doctored_restricted_entry_is_rebuilt_not_trusted():
    task = binary_consensus_task(2)
    model = parse_model("t_resilient(0)")
    first = solve_task(task, 1, model=model)
    assert (first.status, first.rounds) == (SolvabilityStatus.SOLVABLE, 1)
    [path] = sds_cache.cache_dir().glob("*.m-t_resilient-0.sds")
    schema, rev, key, payload = marshal.loads(path.read_bytes())
    base_colors, base_tops, rounds, levels, tops, carrier_masks = payload
    # Every base vertex at once: no base top (an edge) contains that mask.
    straddling = (1 << len(base_colors)) - 1
    doctored = (straddling,) + tuple(carrier_masks[1:])
    path.write_bytes(
        marshal.dumps(
            (schema, rev, key, (base_colors, base_tops, rounds, levels, tops, doctored))
        )
    )
    standard_chromatic._RESTRICTED_MEMO.clear()

    again = solve_task(task, 1, model=model)
    assert (again.status, again.rounds) == (SolvabilityStatus.SOLVABLE, 1)
    assert again.decision_map.as_dict() == first.decision_map.as_dict()
    stored = sds_cache.load(key, model_slug=model.slug)
    stored.validate_carriers()  # the rebuild was re-stored over the bad entry
    assert stored.carrier_masks == tuple(carrier_masks)
