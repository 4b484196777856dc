"""Named task specs: the service's wire-level task vocabulary.

Queries arrive over a socket, so tasks are named, not pickled: a spec is
``(name, args)`` with integer args, resolved to a :class:`~repro.core.task.Task`
*inside the process that needs it* — the server for its substrate keys,
each pool worker for the actual probe.  Resolving in the worker (instead of
shipping the task object) keeps request frames tiny and lets the worker's
own interned vertex/simplex tables back the task's complexes, which is what
makes the fork-shared substrate cache effective.

:func:`resolve_task` memoizes one task per spec in each process, in an LRU
of :data:`_TASK_MEMO_SIZE` entries, so a process that has seen a spec
reuses its Δ check and its candidate, projection, kernel-table and
compiled-level memos.  The bound is a constant, not a knob: a stream
cycling through the (bounded but large) spec space must not grow a worker
without limit.  :func:`~repro.topology.interning.clear_intern_caches` drops
the memo together with the intern tables its tasks were built against.

Specs are canonicalized (:func:`canonical_spec`) so structurally identical
queries — however the client spelled them — share one cache key, one
in-flight future, and one compile pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.core.task import Task
from repro.topology.interning import register_clear_hook

# Resolution is deliberately bounded: the registry exists to serve queries,
# not to let one malformed frame commission an SDS^b build that never ends.
_MAX_PROCESSES = 5
_MAX_GRAPH_LENGTH = 32
_MAX_RESOLUTION = 729
# Tasks memoized per process by resolve_task (least recently used evicted).
_TASK_MEMO_SIZE = 64


class _Spec:
    """One registry entry: factory, arity check, and argument bounds."""

    __slots__ = ("name", "factory", "arity", "check")

    def __init__(
        self,
        name: str,
        factory: Callable[..., Task],
        arity: tuple[int, ...],
        check: Callable[[tuple[int, ...]], str | None],
    ):
        self.name = name
        self.factory = factory
        self.arity = arity
        self.check = check


def _processes_ok(args: tuple[int, ...]) -> str | None:
    if not 1 <= args[0] <= _MAX_PROCESSES:
        return f"processes must be in 1..{_MAX_PROCESSES}"
    return None


def _set_consensus_ok(args: tuple[int, ...]) -> str | None:
    n, k = args
    if not 2 <= n <= _MAX_PROCESSES:
        return f"processes must be in 2..{_MAX_PROCESSES}"
    if not 1 <= k <= n:
        return f"k must be in 1..{n}"
    return None


def _approx_ok(args: tuple[int, ...]) -> str | None:
    n, resolution = args
    if not 2 <= n <= _MAX_PROCESSES:
        return f"processes must be in 2..{_MAX_PROCESSES}"
    if not 2 <= resolution <= _MAX_RESOLUTION:
        return f"resolution must be in 2..{_MAX_RESOLUTION}"
    return None


def _graph_ok(args: tuple[int, ...]) -> str | None:
    if not 2 <= args[0] <= _MAX_GRAPH_LENGTH:
        return f"graph length must be in 2..{_MAX_GRAPH_LENGTH}"
    return None


def _make_identity(n: int) -> Task:
    from repro.tasks import identity_task

    return identity_task(n)


def _make_constant(n: int) -> Task:
    from repro.tasks import constant_task

    return constant_task(n)


def _make_consensus(n: int) -> Task:
    from repro.tasks import binary_consensus_task

    return binary_consensus_task(n)


def _make_set_consensus(n: int, k: int) -> Task:
    from repro.tasks import set_consensus_task

    return set_consensus_task(n, k)


def _make_approximate_agreement(n: int, resolution: int) -> Task:
    from repro.tasks import approximate_agreement_task

    return approximate_agreement_task(n, resolution)


def _make_participating_set(n: int) -> Task:
    from repro.tasks import participating_set_task

    return participating_set_task(n)


def _make_graph_path(length: int) -> Task:
    from repro.tasks import graph_agreement_task
    from repro.tasks.graph_agreement import path_graph

    return graph_agreement_task(path_graph(length))


def _make_graph_cycle(length: int) -> Task:
    from repro.tasks import graph_agreement_task
    from repro.tasks.graph_agreement import cycle_graph

    return graph_agreement_task(cycle_graph(length))


_REGISTRY: dict[str, _Spec] = {
    spec.name: spec
    for spec in (
        _Spec("identity", _make_identity, (1,), _processes_ok),
        _Spec("constant", _make_constant, (1,), _processes_ok),
        _Spec("consensus", _make_consensus, (1,), _processes_ok),
        _Spec("set_consensus", _make_set_consensus, (2,), _set_consensus_ok),
        _Spec(
            "approximate_agreement",
            _make_approximate_agreement,
            (2,),
            _approx_ok,
        ),
        _Spec("participating_set", _make_participating_set, (1,), _processes_ok),
        _Spec("graph_path", _make_graph_path, (1,), _graph_ok),
        _Spec("graph_cycle", _make_graph_cycle, (1,), _graph_ok),
    )
}


def task_registry() -> tuple[str, ...]:
    """The spec names this revision of the service understands."""
    return tuple(sorted(_REGISTRY))


def canonical_spec(task: dict[str, Any]) -> tuple[str, tuple[int, ...]]:
    """Validate a request's task object into the canonical ``(name, args)``.

    Raises :class:`~repro.service.protocol.ProtocolError` — the caller turns
    it into an ``error`` reply — on unknown names, wrong arity, or
    out-of-bounds arguments.
    """
    from repro.service.protocol import ProtocolError

    name = task.get("name")
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ProtocolError(
            f"unknown task {name!r} (one of {', '.join(task_registry())})"
        )
    args = tuple(task.get("args", ()))
    if len(args) not in spec.arity:
        raise ProtocolError(
            f"task {name!r} takes {' or '.join(map(str, spec.arity))} "
            f"argument(s), got {len(args)}"
        )
    problem = spec.check(args)
    if problem is not None:
        raise ProtocolError(f"task {name!r}: {problem}")
    return name, args


def resolve_task(name: str, args: tuple[int, ...]) -> Task:
    """The memoized task for a canonical spec (worker-side entry point).

    Returns the same object for the same ``(name, args)`` until the spec is
    evicted from the LRU or the intern caches are cleared.
    """
    from repro.service.protocol import ProtocolError

    if name not in _REGISTRY:
        raise ProtocolError(f"unknown task {name!r}")
    return _memoized_task(name, tuple(args))


@lru_cache(maxsize=_TASK_MEMO_SIZE)
def _memoized_task(name: str, args: tuple[int, ...]) -> Task:
    return _REGISTRY[name].factory(*args)


register_clear_hook(_memoized_task.cache_clear)


def canonical_model(model: dict[str, Any] | None) -> tuple[str, tuple[int, ...]]:
    """Validate a request's model object into canonical ``(name, args)``.

    The model analogue of :func:`canonical_spec`: bounds-checks through
    :func:`repro.models.resolve_model` and raises
    :class:`~repro.service.protocol.ProtocolError` (``kind="unknown-model"``
    for unknown names) so the server answers with a typed error frame
    instead of a traceback.  ``None`` canonicalizes to the identity.
    """
    from repro.models import model_registry, resolve_model
    from repro.service.protocol import ProtocolError

    if model is None:
        return "iis", ()
    name = model.get("name")
    args = tuple(model.get("args", ()))
    if name not in model_registry():
        raise ProtocolError(
            f"unknown model {name!r} (one of {', '.join(sorted(model_registry()))})",
            kind="unknown-model",
        )
    try:
        resolve_model(name, args)
    except ValueError as exc:
        raise ProtocolError(f"model {name!r}: {exc}") from None
    return name, args


def zoo_mix() -> list[dict[str, Any]]:
    """The zoo-scale query mix: the E5 table as service requests.

    Mirrors ``repro zoo`` — the workload the load benchmark and the smoke
    test drive, heavy on shared-substrate repetition the way a real probe
    stream (affine-task sweeps, model comparisons) is.  A slice of the mix
    runs under non-identity models (:mod:`repro.models`), so the bench
    exercises the per-model verdict-cache keys alongside the iis ones.
    """
    mix = [
        ("identity", (2,), 1, None),
        ("constant", (3,), 1, None),
        ("consensus", (2,), 2, None),
        ("consensus", (2,), 1, ("t_resilient", (0,))),
        ("consensus", (2,), 1, ("k_concurrent", (1,))),
        ("set_consensus", (3, 2), 1, None),
        ("set_consensus", (3, 2), 1, ("k_set_consensus", (2,))),
        ("set_consensus", (3, 3), 1, None),
        ("approximate_agreement", (2, 3), 2, None),
        ("approximate_agreement", (2, 9), 2, None),
        ("approximate_agreement", (3, 2), 1, None),
        ("participating_set", (3,), 1, None),
        ("graph_path", (3,), 1, None),
        ("graph_cycle", (5,), 1, ("adversary", (3,))),
    ]
    requests = []
    for name, args, max_rounds, model in mix:
        request: dict[str, Any] = {
            "v": "repro-svc-v1",
            "op": "solve",
            "task": {"name": name, "args": list(args)},
            "max_rounds": max_rounds,
        }
        if model is not None:
            request["model"] = {"name": model[0], "args": list(model[1])}
        requests.append(request)
    return requests


def conformance_mix() -> list[dict[str, Any]]:
    """The conformance sweep as a batch of service solve requests.

    One request per :func:`repro.conformance.entries.sweep_entries` cell —
    the solve half of the pipeline, phrased in ``repro-svc-v1`` frames so a
    warm service can pre-answer the sweep's verdicts.  Cells under composed
    models are skipped: the wire format deliberately cannot express a
    composition (:func:`repro.service.protocol.validate_request` rejects it
    with a typed error), so those cells solve locally only.
    """
    from repro.conformance.entries import sweep_entries
    from repro.models import parse_model

    requests = []
    for entry in sweep_entries():
        model = parse_model(entry.model)
        if "&" in model.fingerprint:
            continue  # composed: not expressible in repro-svc-v1 frames
        request: dict[str, Any] = {
            "v": "repro-svc-v1",
            "op": "solve",
            "task": {"name": entry.task_name, "args": list(entry.task_args)},
            "max_rounds": entry.max_rounds,
        }
        if not model.is_identity:
            request["model"] = {
                "name": model.name,
                "args": [int(a) for a in model.args],
            }
        requests.append(request)
    return requests
