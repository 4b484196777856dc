#!/usr/bin/env python3
"""CI smoke test for the solvability service: the full user path, end to end.

What it proves, in one run:

1. ``repro serve`` comes up on a Unix socket with a real worker pool;
2. 50 zoo-mix queries issued through the ``repro query`` CLI — separate
   client processes, the way a user actually talks to the service — are
   all answered ``ok`` with sane verdicts;
3. the repetition in the mix lands in the result cache (hit rate > 0 —
   the always-warm property, observable from the outside);
4. a miss pass re-sends the mix with a distinct ``--node-budget`` per query,
   so every reply is ``cache: miss`` and runs in a pool worker on its
   memoized task and compiled levels — and every verdict equals the first
   pass's;
5. a sharded pass re-asks every solvable mix entry at its witnessing round
   ``r`` only (``--min-rounds r --max-rounds r --shards 2``), so the level
   is split into two root-domain chunks whose witness is validated in the
   worker — and every reply is ``solvable`` at ``r``;
6. SIGTERM produces a *clean* shutdown: exit code 0, final stats line,
   socket unlinked.

Run directly or via ``make service-smoke``; needs nothing past the repo.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_service import ServerHarness  # noqa: E402
from repro.service import zoo_mix  # noqa: E402

QUERIES = 50


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def repro_query(socket_path: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "query", "--socket", socket_path, *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"repro query {' '.join(args)} failed (exit {proc.returncode}): "
            f"{(proc.stderr or proc.stdout).strip()[-500:]}"
        )
    return json.loads(proc.stdout)


def spec_argv(request: dict, rounds: int | None = None) -> list[str]:
    """A mix request as ``repro query`` arguments (task, rounds, model).

    With ``rounds``, only that level is probed (``--min-rounds`` and
    ``--max-rounds`` both ``rounds``).
    """
    task = request["task"]
    argv = [task["name"], *map(str, task["args"])]
    if rounds is None:
        argv += ["--max-rounds", str(request["max_rounds"])]
    else:
        argv += ["--min-rounds", str(rounds), "--max-rounds", str(rounds)]
    model = request.get("model")
    if model is not None:
        argv += ["--model", f"{model['name']}({','.join(map(str, model['args']))})"]
    return argv


def main() -> int:
    mix = zoo_mix()
    with tempfile.TemporaryDirectory(prefix="repro-svc-smoke-") as tmp:
        os.environ.setdefault("REPRO_SDS_CACHE_DIR", os.path.join(tmp, "cache"))
        socket_path = os.path.join(tmp, "svc.sock")
        harness = ServerHarness(socket_path, workers=2).start()
        try:
            verdicts: dict[str, int] = {}
            first_pass: dict[int, str] = {}
            witness_rounds: dict[int, int] = {}
            for i in range(QUERIES):
                request = mix[i % len(mix)]
                reply = repro_query(socket_path, *spec_argv(request), "--json")
                if reply.get("status") != "ok":
                    raise SystemExit(f"query {i} not answered ok: {reply}")
                verdicts[reply["verdict"]] = verdicts.get(reply["verdict"], 0) + 1
                first_pass[i % len(mix)] = reply["verdict"]
                if reply["verdict"] == "solvable":
                    witness_rounds[i % len(mix)] = reply["rounds"]

            # Miss pass: a budget no earlier query used, so no verdict-LRU
            # entry can answer; every zoo level exhausts far below it.
            for i, request in enumerate(mix):
                budget = 3_000_000 + i
                reply = repro_query(
                    socket_path, *spec_argv(request), "--node-budget", str(budget),
                    "--json",
                )
                if reply.get("status") != "ok" or reply.get("cache") != "miss":
                    raise SystemExit(f"miss-pass query {i} not a fresh answer: {reply}")
                if reply["verdict"] != first_pass[i]:
                    raise SystemExit(
                        f"miss-pass query {i} answered {reply['verdict']!r}, "
                        f"first pass {first_pass[i]!r}: {request}"
                    )
            print(f"miss pass: {len(mix)} fresh answers, verdicts equal the first pass")

            # Sharded pass: each solvable entry at its witnessing round only,
            # split into two chunks; the chunk that finds the map validates it.
            for i, rounds in sorted(witness_rounds.items()):
                reply = repro_query(
                    socket_path, *spec_argv(mix[i], rounds), "--shards", "2", "--json"
                )
                if (
                    reply.get("status") != "ok"
                    or reply.get("verdict") != "solvable"
                    or reply.get("rounds") != rounds
                    or reply.get("shards") != 2
                ):
                    raise SystemExit(
                        f"sharded query {i} at round {rounds} not solvable there: "
                        f"{reply}"
                    )
            print(
                f"sharded pass: {len(witness_rounds)} solvable entries answer "
                "solvable at their witnessing round with --shards 2"
            )

            stats = repro_query(socket_path, "--stats")
            print(
                f"{QUERIES} queries answered: {verdicts}; "
                f"hit rate {stats['cache_hit_rate']}, "
                f"p95 {stats['latency_ms']['p95']}ms"
            )
            if stats["queries"] < QUERIES + len(mix):
                raise SystemExit(f"server counted only {stats['queries']} queries")
            if not stats["cache_hit_rate"] > 0:
                raise SystemExit(
                    f"cache hit rate is {stats['cache_hit_rate']} after a "
                    "repeating mix — the result cache is not doing its job"
                )
            if not ({"solvable", "unsolvable-up-to-bound"} <= set(verdicts)):
                raise SystemExit(f"suspicious verdict spread: {verdicts}")

            # Clean SIGTERM shutdown: exit 0, socket gone.
            harness.proc.send_signal(signal.SIGTERM)
            code = harness.proc.wait(timeout=60)
            if code != 0:
                raise SystemExit(f"server exited {code} on SIGTERM")
            deadline = time.monotonic() + 10
            while os.path.exists(socket_path):
                if time.monotonic() > deadline:
                    raise SystemExit("server left its socket behind")
                time.sleep(0.1)
            print("clean SIGTERM shutdown (exit 0, socket unlinked)")
        finally:
            harness.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
