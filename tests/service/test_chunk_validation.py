"""A sharded query answers ``solvable`` only on a validated witness.

With ``shards > 1`` a single-level query runs one root-domain chunk per
worker task (``service_probe_chunk``).  Each satisfiable chunk validates its
map before its report leaves the worker, as ``solve_task`` does on the
serial path.  These servers run with ``workers=0``, so a validator patched
in this process is the one the chunks call.
"""

from __future__ import annotations

from repro.service import worker
from tests.service.test_batching import solve_frame, with_service

#: A single satisfiable level, split across two chunks.
SHARDED = solve_frame("approximate_agreement", (2, 9), 2, min_rounds=2, shards=2)


def ask(request):
    async def body(service):
        return await service.handle_request(dict(request))

    return with_service(body)


def test_sharded_answer_is_validated(monkeypatch):
    checked = []
    validate = worker.validate_decision_map

    def recording(subdivision, task, decision_map):
        checked.append(task.name)
        validate(subdivision, task, decision_map)

    monkeypatch.setattr(worker, "validate_decision_map", recording)
    reply = ask(SHARDED)
    assert reply["status"] == "ok"
    assert reply["verdict"] == "solvable"
    assert reply["rounds"] == 2
    assert reply["shards"] == 2
    assert checked  # at least the first satisfiable chunk's map


def test_failed_validation_is_an_error_not_solvable(monkeypatch):
    def reject(subdivision, task, decision_map):
        raise ValueError("decision map violates Δ (injected)")

    monkeypatch.setattr(worker, "validate_decision_map", reject)
    reply = ask(SHARDED)
    assert reply["status"] == "error"
    assert "verdict" not in reply
    assert "injected" in reply["error"]
