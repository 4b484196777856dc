"""Service side of the benchmark: a ``repro serve`` process and a closed-loop client.

The client is one thread driving ``connections`` sockets through
``selectors``: each connection sends its next query the moment the
previous reply lands (a closed loop, zero think time).  One thread keeps
the load generator from competing with itself for the interpreter lock,
which made thread-per-connection clients report bimodal latencies.
"""

from __future__ import annotations

import contextlib
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Query:
    """One request frame and what its reply must say."""

    frame: bytes
    expect: tuple[str, int | None]  # (verdict, witnessing rounds)


@dataclass
class LoopResult:
    """The client's view of one closed-loop window."""

    started: float = 0.0  # perf_counter, comparable across processes
    seconds: float = 0.0
    attempted: int = 0
    ok: int = 0
    failed: int = 0  # errors, overloaded replies and wrong verdicts
    hits: int = 0
    rtts: list[float] = field(default_factory=list)  # seconds, ok replies
    transports: list[float] = field(default_factory=list)  # rtt - server time


class Server:
    """A ``repro serve`` subprocess on a Unix socket, optionally traced.

    ``socket_path`` is relative to ``cwd`` to stay under the 108-byte
    ``AF_UNIX`` path limit wherever the checkout lives.
    """

    def __init__(
        self,
        *,
        root: str,
        socket_path: str,
        cache_dir: str,
        log_path: str,
        workers: int,
        trace_dir: str | None = None,
    ):
        self.socket_path = socket_path
        self.root = root
        self.log_path = log_path
        serve = ["serve", "--socket", socket_path, "--workers", str(workers)]
        if trace_dir is None:
            self.argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            launcher = os.path.join(HERE, "launcher.py")
            self.argv = [sys.executable, launcher, trace_dir, *serve]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["REPRO_SDS_CACHE_DIR"] = cache_dir
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> "Server":
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=self.env, stdout=log, stderr=log
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                with open(self.log_path, errors="replace") as log:
                    raise RuntimeError(f"server exited at startup: {log.read()[-800:]}")
            try:
                if self.request({"op": "ping"})["status"] == "pong":
                    return self
            except OSError:
                time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server not up within {timeout}s")

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(60.0)
        try:
            sock.connect(self.socket_path)
        except OSError:
            sock.close()
            raise
        return sock

    def request(self, record: dict) -> dict:
        """One frame on a fresh connection (control ops, the serial sweep)."""
        with self.connect() as sock:
            return _roundtrip(sock, frame(record))

    def cpu_s(self) -> float:
        """User plus system CPU time the server process has used."""
        fields = proc_stat(self.proc.pid)
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Largest VmHWM over the server and its pool workers."""
        peak = vm_hwm_mb(self.proc.pid)
        for pid in _children(self.proc.pid):
            try:
                peak = max(peak, vm_hwm_mb(pid))
            except OSError:
                pass  # exited since it was listed
        return peak

    def stop(self, timeout: float = 30.0) -> None:
        """Shut down gracefully, then wait for the server and its pool workers."""
        if self.proc is None or self.proc.poll() is not None:
            return
        workers = _children(self.proc.pid)
        try:
            self.request({"op": "shutdown"})
        except OSError:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        # The server does not join its pool on the way out; the orphaned
        # workers exit on their own once their call queue closes.
        deadline = time.monotonic() + timeout
        while any(_alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                for pid in workers:
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)
                break
            time.sleep(0.02)


def frame(record: dict) -> bytes:
    return (json.dumps({"v": "repro-svc-v1", **record}) + "\n").encode()


def _roundtrip(sock: socket.socket, frame: bytes) -> dict:
    sock.sendall(frame)
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    return json.loads(buffer)


def serial_sweep(server: Server, queries: list[Query]) -> int:
    """Send each query once, in order, on one connection; returns failures."""
    failures = 0
    with server.connect() as sock:
        for query in queries:
            reply = _roundtrip(sock, query.frame)
            if reply.get("status") != "ok" or _answer(reply) != query.expect:
                failures += 1
    return failures


def closed_loop(
    server: Server,
    next_query: Callable[[int], Query],
    *,
    connections: int,
    seconds: float,
) -> LoopResult:
    """Drive ``connections`` sockets for ``seconds``; ``next_query(conn)`` feeds them."""
    result = LoopResult()
    selector = selectors.DefaultSelector()
    socks = [server.connect() for _ in range(connections)]
    pending: dict[int, tuple[Query, float]] = {}
    buffers = [b""] * connections
    try:
        start = result.started = time.perf_counter()
        stop_at = start + seconds
        for conn, sock in enumerate(socks):
            selector.register(sock, selectors.EVENT_READ, conn)
            query = next_query(conn)
            pending[conn] = (query, time.perf_counter())
            sock.sendall(query.frame)
        while pending:
            for key, _events in selector.select(timeout=60.0):
                conn = key.data
                chunk = key.fileobj.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed a load connection")
                buffers[conn] += chunk
                if not buffers[conn].endswith(b"\n"):
                    continue
                now = time.perf_counter()
                query, sent = pending.pop(conn)
                _score(result, query, json.loads(buffers[conn]), now - sent)
                buffers[conn] = b""
                if now < stop_at:
                    query = next_query(conn)
                    pending[conn] = (query, time.perf_counter())
                    key.fileobj.sendall(query.frame)
        result.seconds = time.perf_counter() - start
    finally:
        selector.close()
        for sock in socks:
            sock.close()
    return result


def _score(result: LoopResult, query: Query, reply: dict, rtt: float) -> None:
    result.attempted += 1
    if reply.get("status") != "ok" or _answer(reply) != query.expect:
        result.failed += 1
    else:
        result.ok += 1
        result.rtts.append(rtt)
        result.transports.append(rtt - reply["elapsed_ms"] / 1e3)
        if reply.get("cache") == "hit":
            result.hits += 1


def _answer(reply: dict) -> tuple[str, int | None]:
    return reply.get("verdict"), reply.get("rounds")


def proc_stat(pid: int | str) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name (state first); None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = proc_stat(entry)
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` is still running (a zombie has ended)."""
    fields = proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
