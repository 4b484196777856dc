"""Outside-in layer tracing: timing wrappers around the program's public functions.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` replaces each
traced function with a wrapper that records one span per call (name, start,
end, parent) on a per-thread stack.  Callers that imported a function by
name hold their own reference to it, so :meth:`Tracer.install` replaces
*every* ``repro.*`` module attribute that ``is`` the original, and
:meth:`Tracer.uninstall` puts each of them back.

A layer's self time is its spans' duration minus the time covered by their
direct child spans, so the self times of one process never overlap and,
with the untraced remainder (``unattributed``), add up to the wall time.

Worker processes forked from a traced process inherit the wrappers.  With
``flush_dir`` set, a forked child drops the parent's spans and appends its
own to ``spans-<pid>.jsonl`` after every top-level call, so nothing is lost
when a pool tears its workers down without an exit hook.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

#: Layer name -> the ``module:function`` targets whose calls it times.  The
#: names are the keys of the per-layer table; each traced function belongs
#: to exactly one layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "service.codec": (
        "repro.service.protocol:decode_line",
        "repro.service.protocol:encode_record",
    ),
    "service.validate": ("repro.service.protocol:validate_request",),
    "service.query_key": ("repro.service.scheduler:query_key",),
    "service.worker.probe": ("repro.service.worker:service_probe",),
    "service.worker.warm": (
        "repro.service.worker:warm_service_worker",
        "repro.service.worker:warm_substrate",
    ),
    "topology.substrate": (
        "repro.topology.standard_chromatic:iterated_standard_chromatic_subdivision",
        "repro.topology.shards:ensure_sharded",
        "repro.topology.shards:build_sds_sharded",
    ),
    "models.restrict": (
        "repro.models.reference:restrict_subdivision",
        "repro.models.packed:ensure_restricted",
    ),
    "kernel.compile": (
        "repro.core.csp_kernel:compile_level",
        "repro.core.csp_kernel:compile_level_packed",
        "repro.core.mask_kernel:compile_arrays",
    ),
    "kernel.search": (
        "repro.core.csp_kernel:kernel_search",
        "repro.core.mask_kernel:array_search",
    ),
    "solvability.solve": ("repro.core.solvability:solve_task",),
    "solvability.validate": ("repro.core.solvability:validate_decision_map",),
}


def _kernel_counts(result) -> dict:
    _mapping, stats = result
    return {
        "nodes": stats.nodes,
        "conflicts": stats.conflicts,
        "backjumps": stats.backjumps,
        "exhausted": int(stats.exhausted),
    }


#: Counts read off a traced call's return value, per layer.
_COUNTERS = {"kernel.search": _kernel_counts}


@dataclass(slots=True)
class Span:
    """One traced call; ``parent`` indexes the same process's span list."""

    name: str
    start: float
    end: float
    parent: int | None
    counts: dict | None = None
    children_s: float = 0.0  # filled in by :func:`self_times`

    def to_json(self, index: int, pid: int) -> dict:
        return {
            "pid": pid,
            "i": index,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }

    @classmethod
    def from_json(cls, record: dict) -> "Span":
        return cls(
            record["name"],
            record["start"],
            record["end"],
            record["parent"],
            record.get("counts"),
        )


@dataclass
class Tracer:
    """Installs the layer wrappers into the ``repro`` package and records spans."""

    flush_dir: str | None = None
    spans: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _originals: dict[int, object] = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _flushed: int = 0
    _in_worker: bool = False

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, attr = target.partition(":")
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(layer, original)
                self._originals[id(wrapper)] = (wrapper, original)
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, original))
        if self.flush_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        # A module first imported while tracing copied a wrapper by name.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, original):
        counter = _COUNTERS.get(layer)
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(layer, clock(), 0.0, parent)
            with self._lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if not stack and self._in_worker:
                    self.flush()

        return wrapper

    def _after_fork(self) -> None:
        # A forked pool worker starts with a copy of the parent's spans; keep
        # only its own, and write them out as they complete.
        self.spans.clear()
        self._local.stack = []
        self._lock = threading.Lock()
        self._flushed = 0
        self._in_worker = True

    def flush(self) -> None:
        """Append the spans recorded since the last flush to this pid's file."""
        if self.flush_dir is None:
            return
        pid = os.getpid()
        path = os.path.join(self.flush_dir, f"spans-{pid}.jsonl")
        with open(path, "a") as handle:
            for index in range(self._flushed, len(self.spans)):
                handle.write(json.dumps(self.spans[index].to_json(index, pid)) + "\n")
        self._flushed = len(self.spans)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def load_spans(directory: str) -> dict[int, list[Span]]:
    """Every ``spans-<pid>.jsonl`` under ``directory``, keyed by pid."""
    by_pid: dict[int, list[Span]] = {}
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, entry)) as handle:
            for line in handle:
                record = json.loads(line)
                # Each pid's spans are flushed in index order from 0, so the
                # list position equals the recorded index.
                by_pid.setdefault(record["pid"], []).append(Span.from_json(record))
    return by_pid


# -- analysis ----------------------------------------------------------------


@dataclass
class LayerRow:
    """One layer's totals over a set of spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, other: "LayerRow") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def self_times(
    spans: list[Span], window: tuple[float, float] | None = None
) -> dict[str, LayerRow]:
    """Per-layer calls, total time, self time and summed counts.

    A span's self time is its duration minus the durations of its direct
    children.  Only spans that start inside ``window`` (when given) count;
    their children always start inside them, so a window never splits a
    parent from its children.
    """
    for span in spans:
        span.children_s = 0.0
    for span in spans:
        if span.parent is not None:
            spans[span.parent].children_s += span.end - span.start
    rows: dict[str, LayerRow] = {}
    for span in spans:
        if window is not None and not window[0] <= span.start < window[1]:
            continue
        duration = span.end - span.start
        rows.setdefault(span.name, LayerRow()).add(
            LayerRow(1, duration, duration - span.children_s, span.counts or {})
        )
    return rows


def format_table(
    rows: dict[str, LayerRow], wall_s: float, unattributed_s: float, title: str
) -> str:
    """The traced run's per-layer self-time table, as printed."""
    lines = [
        f"== {title}: wall {wall_s:.3f}s",
        f"{'layer':<24}{'calls':>9}{'total_s':>12}{'self_s':>12}{'self/wall':>11}",
    ]
    for name in sorted(rows, key=lambda n: -rows[n].self_s):
        row = rows[name]
        lines.append(
            f"{name:<24}{row.calls:>9}{row.total_s:>12.4f}{row.self_s:>12.4f}"
            f"{row.self_s / wall_s:>11.3f}"
        )
    lines.append(
        f"{'(unattributed)':<24}{'':>9}{'':>12}{unattributed_s:>12.4f}"
        f"{unattributed_s / wall_s:>11.3f}"
    )
    return "\n".join(lines)
