"""The fixed answers every benchmark run is checked against.

Verdicts and witnessing rounds are properties of the tasks, not of the
engine, so no optimisation may change them.  Search statistics (nodes,
schedules) are deliberately not pinned: a better search changes them.
"""

from __future__ import annotations

#: ``zoo_mix()`` in order: (task, args, model, max_rounds) -> (verdict, rounds).
ZOO_VERDICTS: dict[tuple, tuple[str, int | None]] = {
    ("identity", (2,), None, 1): ("solvable", 0),
    ("constant", (3,), None, 1): ("solvable", 0),
    ("consensus", (2,), None, 2): ("unsolvable-up-to-bound", None),
    ("consensus", (2,), ("t_resilient", (0,)), 1): ("solvable", 1),
    ("consensus", (2,), ("k_concurrent", (1,)), 1): ("solvable", 1),
    ("set_consensus", (3, 2), None, 1): ("unsolvable-up-to-bound", None),
    ("set_consensus", (3, 2), ("k_set_consensus", (2,)), 1): ("solvable", 1),
    ("set_consensus", (3, 3), None, 1): ("solvable", 0),
    ("approximate_agreement", (2, 3), None, 2): ("solvable", 1),
    ("approximate_agreement", (2, 9), None, 2): ("solvable", 2),
    ("approximate_agreement", (3, 2), None, 1): ("solvable", 1),
    ("participating_set", (3,), None, 1): ("solvable", 1),
    ("graph_path", (3,), None, 1): ("solvable", 1),
    ("graph_cycle", (5,), ("adversary", (3,)), 1): ("solvable", 1),
}

#: ``solve_search``: (task, args, min_rounds, max_rounds, node_budget) ->
#: (verdict, rounds).  One exhaustive refutation (127,323 nodes), one
#: budget-stopped level, two satisfiable levels.
SOLVE_CASES: dict[tuple, tuple[str, int | None]] = {
    ("set_consensus", (4, 3), 1, 1, 2_000_000): ("unsolvable-up-to-bound", None),
    ("set_consensus", (3, 2), 2, 2, 300_000): ("unknown", None),
    ("approximate_agreement", (3, 3), 2, 2, 2_000_000): ("solvable", 2),
    ("approximate_agreement", (4, 2), 1, 1, 2_000_000): ("solvable", 1),
}

#: ``model_b3``: one (4-process, b=3) query under ``t_resilient(1)``.
MODEL_CASE: tuple = ("set_consensus", (4, 3), 3, 3, ("t_resilient", (1,)))
MODEL_VERDICT: tuple[str, int | None] = ("solvable", 3)
