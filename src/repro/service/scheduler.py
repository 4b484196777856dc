"""The batching scheduler: coalescing, sharding, backpressure, deadlines.

Sits between the protocol layer and the worker pool.  For each admitted
``solve`` request it runs the cache ladder:

1. **result cache** — finished verdict, answered inline (``cache: hit``);
2. **in-flight dedup** — an identical query is already computing; await its
   shared future (``cache: coalesced``).  N concurrent identical queries
   cost exactly one compile pass — the Hypothesis suite pins this via the
   ``svc.probe.executed`` counter;
3. **dispatch** (``cache: miss``) — a driver task first awaits the
   *substrate gate* for the query's ``(base structure, b)`` level (one
   :func:`~repro.service.worker.warm_substrate` pass shared by every
   concurrent query of that level, whatever its task), then ships the
   probe to the pool; large single-level searches fan out over
   :func:`~repro.core.csp_kernel.root_domain_chunks` with chunk verdicts
   merged in value order, so the sharded answer equals the serial one.

Backpressure is admission-counted: more than ``max_pending`` uncached
queries in flight and new ones get ``overloaded(queue-full)`` without
touching the caches.  Deadlines bound *waiting*, not computing: a query
whose deadline lapses gets ``overloaded(deadline)``, while the shared
driver — other queries may be coalesced onto it — runs to completion and
still populates the result cache.  An expired deadline can therefore never
poison shared state, only decline to wait for it.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.obs import OBS as _OBS
from repro.service.protocol import ProtocolError
from repro.service.registry import canonical_model, canonical_spec
from repro.service.state import ServiceState
from repro.service.worker import (
    combine_chunk_reports,
    service_probe,
    service_probe_chunk,
    substrate_key,
    warm_substrate,
)


class Overloaded(Exception):
    """Raised to the server layer when a query must be declined."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def query_key(request: dict[str, Any]) -> tuple:
    """Canonical identity of a solve request (the dedup/cache key).

    The model rides in the key, so the verdict cache is per-model: the same
    task under ``iis`` and under ``t_resilient(1)`` are distinct entries,
    while every spelling of the identity collapses onto ``("iis", ())``.
    """
    name, args = canonical_spec(request["task"])
    model = canonical_model(request.get("model"))
    options = tuple(sorted(request.get("options", {}).items()))
    return (
        name,
        args,
        model,
        request["min_rounds"],
        request["max_rounds"],
        request["node_budget"],
        request["shards"],
        options,
    )


class BatchingScheduler:
    """Owns the in-flight table, the substrate gates, and the pool handle."""

    def __init__(
        self,
        state: ServiceState,
        executor,
        *,
        max_pending: int = 64,
        default_deadline_ms: float = 30_000.0,
    ):
        self.state = state
        self.executor = executor
        self.max_pending = max_pending
        self.default_deadline_ms = default_deadline_ms
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._substrate_gates: dict[str, asyncio.Future] = {}
        # (name, args, rounds, model) -> structure key: one entry per level
        # substrate a spec reads, not per query (budgets and options vary).
        self._substrate_keys: dict[tuple, str] = {}
        self._active = 0

    # -- public surface ----------------------------------------------------

    @property
    def active(self) -> int:
        """Admitted, not-yet-answered uncached queries (the queue depth)."""
        return self._active

    async def solve(self, request: dict[str, Any]) -> tuple[dict[str, Any], str]:
        """Answer one validated solve request.

        Returns ``(summary, cache)`` where ``cache`` is hit/coalesced/miss.
        Raises :class:`Overloaded` for admission/deadline declines and
        :class:`ProtocolError` for unresolvable task specs.
        """
        key = query_key(request)
        cached = self.state.results.get(key)
        if cached is not None:
            return cached, "hit"

        shared = self._inflight.get(key)
        if shared is not None:
            summary = await self._await_with_deadline(shared, request)
            return summary, "coalesced"

        if self._active >= self.max_pending:
            raise Overloaded("queue-full")
        self._active += 1
        self.state.stats.enter()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        driver = loop.create_task(self._drive(key, request, future))
        # The driver's lifetime is the future's: errors propagate through it.
        driver.add_done_callback(lambda _task: None)
        try:
            summary = await self._await_with_deadline(future, request)
        finally:
            self._active -= 1
            self.state.stats.leave()
        return summary, "miss"

    async def drain(self, timeout: float | None = None) -> None:
        """Wait for every in-flight driver to finish (graceful shutdown)."""
        pending = [f for f in self._inflight.values() if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)

    # -- internals ---------------------------------------------------------

    async def _await_with_deadline(
        self, future: asyncio.Future, request: dict[str, Any]
    ) -> dict[str, Any]:
        deadline_ms = request.get("deadline_ms", self.default_deadline_ms)
        if deadline_ms <= 0:
            # Already expired on arrival.  The driver (ours or a peer's)
            # keeps computing — declining to wait must not cancel work other
            # queries are coalesced onto, nor forfeit the cache fill.
            raise Overloaded("deadline")
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), timeout=deadline_ms / 1e3
            )
        except asyncio.TimeoutError:
            raise Overloaded("deadline") from None

    async def _drive(
        self, key: tuple, request: dict[str, Any], future: asyncio.Future
    ) -> None:
        """The one computation per distinct in-flight query."""
        loop = asyncio.get_running_loop()
        try:
            name, args = canonical_spec(request["task"])
            model = canonical_model(request.get("model"))
            max_rounds = request["max_rounds"]
            if max_rounds >= 1:
                await self._ensure_substrate(name, args, max_rounds, model)
            if _OBS.enabled:
                _OBS.metrics.counter("svc.probe.executed").inc()
            started = loop.time()
            shards = request["shards"]
            options = dict(request.get("options", {}))
            if (
                shards > 1
                and request["min_rounds"] == max_rounds
                and options.get("kernel", True)
            ):
                chunks = await asyncio.gather(
                    *(
                        loop.run_in_executor(
                            self.executor,
                            service_probe_chunk,
                            name,
                            args,
                            max_rounds,
                            request["node_budget"],
                            options,
                            chunk,
                            shards,
                            model,
                        )
                        for chunk in range(shards)
                    )
                )
                summary = combine_chunk_reports(name, list(chunks))
                if model[0] != "iis":
                    from repro.models import resolve_model

                    summary["model"] = resolve_model(*model).fingerprint
            else:
                summary = await loop.run_in_executor(
                    self.executor,
                    service_probe,
                    name,
                    args,
                    request["min_rounds"],
                    max_rounds,
                    request["node_budget"],
                    options,
                    model,
                )
            self.state.stats.probe_seconds += loop.time() - started
            self.state.results.put(key, summary)
            self.state.maybe_prune()
            if not future.done():
                future.set_result(summary)
        except BaseException as exc:  # noqa: BLE001 - forwarded to awaiters
            if not future.done():
                future.set_exception(exc)
            else:  # pragma: no cover - future only resolves here
                raise
        finally:
            self._inflight.pop(key, None)

    async def _ensure_substrate(
        self,
        name: str,
        args: tuple[int, ...],
        rounds: int,
        model: tuple[str, tuple[int, ...]] | None = None,
    ) -> None:
        """One warm pass per (base structure, rounds, model), shared by every query.

        The structure key is computed once per ``(spec, rounds, model)`` (it
        needs the task's input complex, resolved server-side) and the
        gate future is shared across *tasks*: any two specs over the same
        base coalesce onto the same ``SDS^b`` build.  Non-identity models
        gate separately (their warm builds the ``.m-{slug}`` restricted
        store), so model queries of the same base coalesce with each other
        but never skip the restricted warm by riding an identity gate.
        """
        loop = asyncio.get_running_loop()
        spec_key = (name, args, rounds, model)
        structure = self._substrate_keys.get(spec_key)
        if structure is None:
            structure = substrate_key(name, args, rounds, model)
            self._substrate_keys[spec_key] = structure
        gate = self._substrate_gates.get(structure)
        if gate is None:
            gate = loop.create_future()
            self._substrate_gates[structure] = gate
            if _OBS.enabled:
                _OBS.metrics.counter("svc.substrate.warmed").inc()
            try:
                await loop.run_in_executor(
                    self.executor, warm_substrate, name, args, rounds, model
                )
            except BaseException as exc:  # noqa: BLE001 - unblock waiters
                self._substrate_gates.pop(structure, None)
                if not gate.done():
                    gate.set_exception(exc)
                    # The exception is re-raised below for this query; mark
                    # the gate retrieved so a no-waiter failure doesn't warn.
                    gate.exception()
                raise
            if not gate.done():
                gate.set_result(True)
        elif not gate.done():
            if _OBS.enabled:
                _OBS.metrics.counter("svc.substrate.coalesced").inc()
            await asyncio.shield(gate)


__all__ = ["BatchingScheduler", "Overloaded", "ProtocolError", "query_key"]
