"""Introspection and control of the hash-consing layer.

:class:`~repro.topology.vertex.Vertex` and
:class:`~repro.topology.simplex.Simplex` are interned in module-level tables
so that equality on the engine's hot paths is (almost always) a pointer
check and per-object caches (hashes, sort keys, sorted vertex orders) are
computed once per distinct object.  The tables hold strong references: for
the bounded universes this library manipulates (``SDS^b(s^n)`` for small
``n, b`` and the task zoo) that is a few megabytes at most, and it keeps the
fast path free of weakref indirection.

A long-running process that churns through unbounded payload spaces can
reset the tables between workloads with :func:`clear_intern_caches`;
existing objects remain valid (equality falls back to value comparison for
duplicates created after a reset).
"""

from __future__ import annotations

from typing import Callable

from repro.topology import simplex as _simplex_module
from repro.topology import vertex as _vertex_module

# Clear functions of memos above the topology layer that hold interned
# objects (the service registry's task memo); the layering forbids importing
# them here, so they register themselves.
_CLEAR_HOOKS: list[Callable[[], object]] = []


def register_clear_hook(hook: Callable[[], object]) -> None:
    """Have :func:`clear_intern_caches` call ``hook()`` as well."""
    _CLEAR_HOOKS.append(hook)


def intern_table_sizes() -> dict[str, int]:
    """Current sizes of the vertex and simplex intern tables."""
    return {
        "vertices": len(_vertex_module._INTERN),
        "simplices": len(_simplex_module._INTERN),
    }


def intern_table_stats() -> dict[str, dict[str, int]] | None:
    """Live hit/miss counts while an observability capture is open.

    Inside :func:`repro.obs.capture` the plain intern dicts are swapped for
    counting twins (see ``repro.obs._CountingIntern``); this reads their
    counters without waiting for capture exit.  Returns ``None`` when no
    capture is active — the disabled tables are plain dicts and count
    nothing, by design (the hot path must not pay for bookkeeping).
    """
    tables = {
        "vertices": _vertex_module._INTERN,
        "simplices": _simplex_module._INTERN,
    }
    stats: dict[str, dict[str, int]] = {}
    for name, table in tables.items():
        hits = getattr(table, "hits", None)
        if hits is None:
            return None
        stats[name] = {
            "hits": hits,
            "misses": table.misses,
            "size": len(table),
        }
    return stats


def clear_intern_caches() -> dict[str, int]:
    """Drop every interned vertex and simplex; returns the sizes dropped.

    Also clears the memoized SDS partition templates, which reference no
    vertices but are repopulated cheaply.
    """
    sizes = intern_table_sizes()
    _vertex_module._INTERN.clear()
    _simplex_module._INTERN.clear()
    from repro.topology import standard_chromatic as _sds_module

    # The memoized SDS results hold references to interned objects; they must
    # not outlive the tables they were built against.  The orbit engine's
    # integer tables (repro.topology.orbits.packed_tables) are vertex-free
    # static combinatorics and deliberately survive: a "cold" build re-pays
    # materialization, not one-time template math.
    _sds_module._SDS_TOPS_CACHE.clear()
    _sds_module._ITERATED_MEMO.clear()
    _sds_module._RESTRICTED_MEMO.clear()
    _sds_module.sds_partition_templates.cache_clear()
    # Same story for the Δ-derived memos on live tasks (candidate decisions
    # and projected-tuple tables feeding the CSP kernel).  Deferred import:
    # core sits above topology in the layering.
    from repro.core.task import clear_task_caches

    clear_task_caches()
    for hook in _CLEAR_HOOKS:
        hook()
    return sizes
