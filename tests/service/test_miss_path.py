"""The service's miss path: distinct-budget queries over shared worker memos.

Every query here carries its own ``node_budget``, so none is answered
from the verdict LRU: each runs the scheduler and ``service_probe``.  With
``workers=0`` the probes run on the server's executor threads, which share
one memoized task per spec and one compiled level per (task, level).
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.solvability import solve_task
from repro.models import resolve_model
from repro.service import ServiceClient, ServiceConfig, SolvabilityService, zoo_mix
from repro.service import registry
from repro.service.protocol import PROTOCOL, validate_request
from repro.service.registry import resolve_task
from tests.service.conftest import running_service


def test_distinct_budgets_share_one_substrate_key():
    frames = [
        validate_request(
            {
                "v": PROTOCOL,
                "op": "solve",
                "task": {"name": "consensus", "args": [2]},
                "max_rounds": 1,
                "node_budget": 1_000 + i,
            }
        )
        for i in range(200)
    ]

    async def main():
        service = SolvabilityService(ServiceConfig(port=0, workers=0, warm_levels=()))
        await service.start()
        try:
            replies = [await service.handle_request(dict(frame)) for frame in frames]
            return replies, dict(service.scheduler._substrate_keys)
        finally:
            await service.stop()

    replies, substrate_keys = asyncio.run(main())
    assert [reply["cache"] for reply in replies] == ["miss"] * 200
    assert {reply["verdict"] for reply in replies} == {"unsolvable-up-to-bound"}
    assert list(substrate_keys) == [("consensus", (2,), 1, ("iis", ()))]


def level_counters(levels):
    return [
        (level["rounds"], level["satisfiable"], level["nodes"], level["vertices"],
         level["exhausted"])
        for level in levels
    ]


def serial_answer(request):
    task = resolve_task(request["task"]["name"], tuple(request["task"]["args"]))
    model = request.get("model")
    result = solve_task(
        task,
        request["max_rounds"],
        model=None if model is None else resolve_model(model["name"], model["args"]),
    )
    return (
        result.status.value,
        result.rounds,
        [
            (r.rounds, r.satisfiable, r.nodes_explored, r.vertices, r.exhausted)
            for r in result.levels
        ],
    )


def test_concurrent_clients_on_shared_memos_match_serial(tmp_path):
    mix = zoo_mix()
    clients, passes = 4, 2
    registry._memoized_task.cache_clear()  # the executor threads race to build tasks
    config = ServiceConfig(
        socket_path=str(tmp_path / "svc.sock"), workers=0, warm_levels=()
    )
    answers: dict[int, list] = {}
    errors: list[BaseException] = []
    with running_service(config) as service:
        barrier = threading.Barrier(clients)

        def replay(client_index: int) -> None:
            try:
                seen = []
                with ServiceClient(socket_path=service.endpoints.socket_path) as c:
                    barrier.wait(timeout=60)
                    for k in range(passes * len(mix)):
                        index = (k + client_index * 3) % len(mix)
                        budget = 2_000_000 + client_index * 1_000 + k
                        reply = c.request({**mix[index], "node_budget": budget})
                        seen.append((index, reply))
                answers[client_index] = seen
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=replay, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)

    assert not errors, errors
    expected = [serial_answer(request) for request in mix]
    for client_index in range(clients):
        assert len(answers[client_index]) == passes * len(mix)
        for index, reply in answers[client_index]:
            assert reply["status"] == "ok", reply
            assert reply["cache"] == "miss"
            got = (reply["verdict"], reply["rounds"], level_counters(reply["levels"]))
            assert got == expected[index], mix[index]
