"""Persistent cross-run/cross-process cache of packed ``SDS^b`` builds.

``SDS^b`` is a pure function of the *structure* of its base — the colors of
the base vertices (in the library-wide sort order) and the top simplices as
id tuples — so one packed build (:class:`repro.topology.compact.CompactSubdivision`)
can serve every process that ever subdivides a structurally identical base:
cold CLI invocations, the ``ProcessPoolExecutor`` workers
:func:`repro.core.solvability.solve_task` fans levels out to, and the model
checker's parallel explorers.  Payloads deliberately do NOT enter the cache
key: materialization re-anchors the packed ids onto the caller's actual base
vertices, so two bases differing only in payloads share one entry (that is a
feature, and it is also what makes the key deterministic across processes —
``repr`` of a payload frozenset is hash-order dependent, ``repr`` of int
tuples is not).

Entries are ``marshal`` blobs of pure int/tuple data (no arbitrary-object
deserialization), written atomically (`tmp` + ``os.replace``) so concurrent
writers at worst duplicate work.  Any unreadable, mis-versioned or corrupt
entry is treated as a miss and rebuilt.  Keys are versioned by the schema
(``repro-sds-v1``) and :data:`ENGINE_REV` — bump the latter whenever the
packed layout or the orbit enumeration order changes.

Layout: ``~/.cache/repro-sds/`` (override with ``REPRO_SDS_CACHE_DIR``; set
it to an empty string to disable the cache entirely).
"""

from __future__ import annotations

import hashlib
import marshal
import os
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.obs import OBS as _OBS

SCHEMA = "repro-sds-v1"

# Bump when CompactSubdivision's payload layout, the orbit enumeration, or
# the id-assignment order changes; old entries become unreachable (and are
# swept by ``clear_cache``/``cache_info`` tooling, not eagerly).
ENGINE_REV = 1


def cache_dir() -> Path | None:
    """The active cache directory, or ``None`` when the cache is disabled."""
    env = os.environ.get("REPRO_SDS_CACHE_DIR")
    if env is not None:
        if not env:
            return None
        return Path(env)
    return Path.home() / ".cache" / "repro-sds"


def structure_key(
    base_colors: Sequence[int],
    base_tops: Sequence[tuple[int, ...]],
    rounds: int,
    model_fingerprint: str | None = None,
) -> str:
    """Deterministic content key over the structural build inputs.

    ``model_fingerprint`` extends the key for model-restricted builds
    (:mod:`repro.models`): distinct models get distinct keys.  The identity
    model (``None`` or ``"iis"``) hashes the exact pre-model blob, so iis
    keys — and therefore the stored bytes of iis entries — are unchanged by
    the model subsystem.
    """
    parts: tuple = (SCHEMA, ENGINE_REV, tuple(base_colors), tuple(base_tops), rounds)
    if model_fingerprint is not None and model_fingerprint != "iis":
        parts = parts + (model_fingerprint,)
    blob = repr(parts).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def _entry_path(directory: Path, key: str, model_slug: str | None = None) -> Path:
    # Model-restricted entries carry their slug in the filename so
    # ``cache_info`` can break entries down per model without reading blobs;
    # iis entries keep the exact pre-model name (byte-identical files).
    if model_slug is not None and model_slug != "iis":
        return directory / f"{SCHEMA}-r{ENGINE_REV}-{key[:40]}.m-{model_slug}.sds"
    return directory / f"{SCHEMA}-r{ENGINE_REV}-{key[:40]}.sds"


def entry_model_slug(path: Path) -> str:
    """The model slug encoded in an entry filename (``"iis"`` when none)."""
    stem = path.name[: -len(".sds")] if path.name.endswith(".sds") else path.name
    return stem.split(".m-", 1)[1] if ".m-" in stem else "iis"


def shard_store_key(structure_key_: str, shard_size: int) -> str:
    """Content key of a sharded build: the structure key plus the shard split.

    The same subdivision sharded at two block sizes is two distinct on-disk
    artifacts (different shard boundaries, star indices and vid ranges), so
    the split parameter is part of the identity.
    """
    blob = repr((SCHEMA, ENGINE_REV, "shards", structure_key_, shard_size)).encode(
        "ascii"
    )
    return hashlib.sha256(blob).hexdigest()


def manifest_path(
    directory: Path, store_key: str, model_slug: str | None = None
) -> Path:
    # Model-restricted shard sets carry their slug in the filename, exactly
    # like ``.m-{slug}.sds`` entries, so shard accounting can attribute a
    # set to its model without reading the manifest blob; iis sets keep the
    # exact pre-model name (byte-identical files).
    if model_slug is not None and model_slug != "iis":
        return (
            directory
            / f"{SCHEMA}-r{ENGINE_REV}-{store_key[:40]}.m-{model_slug}.manifest"
        )
    return directory / f"{SCHEMA}-r{ENGINE_REV}-{store_key[:40]}.manifest"


def shard_path(
    directory: Path, store_key: str, index: int, model_slug: str | None = None
) -> Path:
    if model_slug is not None and model_slug != "iis":
        return (
            directory
            / f"{SCHEMA}-r{ENGINE_REV}-{store_key[:40]}.m-{model_slug}.shard{index:05d}"
        )
    return directory / f"{SCHEMA}-r{ENGINE_REV}-{store_key[:40]}.shard{index:05d}"


def shard_file_model_slug(path: Path) -> str:
    """The model slug encoded in a manifest/shard filename (``"iis"`` if none)."""
    stem = path.name
    if stem.endswith(".manifest"):
        stem = stem[: -len(".manifest")]
    else:
        cut = stem.rfind(".shard")
        if cut != -1:
            stem = stem[:cut]
    return stem.split(".m-", 1)[1] if ".m-" in stem else "iis"


def _touch(path: Path) -> None:
    """Best-effort mtime bump — the LRU recency signal for :func:`prune`."""
    try:
        os.utime(path, None)
    except OSError:
        pass


def load(key: str, *, model_slug: str | None = None):
    """The cached :class:`CompactSubdivision` for ``key``, or ``None``.

    Every failure mode — disabled cache, missing file, torn write, schema or
    revision mismatch — is a miss; the caller rebuilds and re-stores.
    ``model_slug`` routes to a model-restricted entry (the key must already
    carry the matching fingerprint via :func:`structure_key`).
    """
    from repro.topology.compact import CompactSubdivision

    directory = cache_dir()
    compact = None
    if directory is not None:
        try:
            # Whole-buffer loads: marshal.load on a file handle issues one
            # tiny read per object, which is ~10x slower on these payloads.
            path = _entry_path(directory, key, model_slug)
            record = marshal.loads(path.read_bytes())
            if (
                isinstance(record, tuple)
                and len(record) == 4
                and record[0] == SCHEMA
                and record[1] == ENGINE_REV
                and record[2] == key
            ):
                compact = CompactSubdivision.from_payload(record[3])
                _touch(path)
        except (OSError, ValueError, EOFError, TypeError):
            compact = None
    if _OBS.enabled:
        _OBS.metrics.counter(
            "sds.orbit.cache", outcome="hit" if compact is not None else "miss"
        ).inc()
    return compact


def store(key: str, compact, *, model_slug: str | None = None) -> bool:
    """Persist a packed build; best-effort (cache write failures are silent)."""
    directory = cache_dir()
    if directory is None:
        return False
    record = (SCHEMA, ENGINE_REV, key, compact.to_payload())
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                marshal.dump(record, handle)
            os.replace(tmp_name, _entry_path(directory, key, model_slug))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return False
    if _OBS.enabled:
        _OBS.metrics.counter("sds.orbit.cache", outcome="store").inc()
    return True


def load_or_build(key: str, build, *, model_slug: str | None = None) -> tuple:
    """``(compact, outcome)``: the entry for ``key``, or ``build()`` stored.

    Both paths pass the integrity gate
    (:meth:`~repro.topology.compact.CompactSubdivision.validate_carriers`):
    a disk entry that fails it is a miss, rebuilt and stored over, never
    trusted.  ``outcome`` is ``"hit"``, ``"built"``, or ``"built-unstored"``
    when the cache is disabled or unwritable.
    """
    compact = load(key, model_slug=model_slug)
    if compact is not None:
        try:
            compact.validate_carriers()
            return compact, "hit"
        except (ValueError, IndexError):
            pass
    compact = build()
    compact.validate_carriers()
    stored = store(key, compact, model_slug=model_slug)
    return compact, "built" if stored else "built-unstored"


def _entries(directory: Path) -> list[Path]:
    try:
        return sorted(directory.glob(f"{SCHEMA}-*.sds"))
    except OSError:
        return []


def _shard_sets(directory: Path) -> list[list[Path]]:
    """Group shard-set files (manifest + shard blocks) by store key.

    Orphan shard files whose manifest is gone still form a (headless) group,
    so eviction and ``clear`` sweep them instead of leaking them.
    """
    groups: dict[str, list[Path]] = {}
    try:
        paths = list(directory.glob(f"{SCHEMA}-*.manifest"))
        paths += list(directory.glob(f"{SCHEMA}-*.shard[0-9]*"))
    except OSError:
        return []
    for path in paths:
        groups.setdefault(path.name.split(".")[0], []).append(path)
    return [sorted(group) for _, group in sorted(groups.items())]


def cache_info() -> dict:
    """Directory, entry count and total bytes of the persistent cache."""
    directory = cache_dir()
    info = {
        "schema": SCHEMA,
        "engine_rev": ENGINE_REV,
        "directory": str(directory) if directory is not None else None,
        "enabled": directory is not None,
        "entries": 0,
        "bytes": 0,
        "shard_sets": 0,
        "shard_files": 0,
        "shard_bytes": 0,
        "models": {},
        "shard_models": {},
    }
    if directory is None or not directory.is_dir():
        return info
    for path in _entries(directory):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        info["bytes"] += size
        info["entries"] += 1
        bucket = info["models"].setdefault(
            entry_model_slug(path), {"entries": 0, "bytes": 0}
        )
        bucket["entries"] += 1
        bucket["bytes"] += size
    for group in _shard_sets(directory):
        counted = False
        set_bytes = 0
        set_files = 0
        for path in group:
            try:
                size = path.stat().st_size
            except OSError:
                continue
            info["shard_bytes"] += size
            info["shard_files"] += 1
            set_bytes += size
            set_files += 1
            counted = True
        if counted:
            info["shard_sets"] += 1
            bucket = info["shard_models"].setdefault(
                shard_file_model_slug(group[0]), {"sets": 0, "files": 0, "bytes": 0}
            )
            bucket["sets"] += 1
            bucket["files"] += set_files
            bucket["bytes"] += set_bytes
    return info


def clear_cache() -> int:
    """Remove every cache entry (all revisions); returns entries removed."""
    directory = cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    shard_files = [path for group in _shard_sets(directory) for path in group]
    for path in _entries(directory) + shard_files:
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed


def prune(max_bytes: int, *, model_slug: str | None = None) -> dict:
    """Evict least-recently-used cache units until the total fits the budget.

    A *unit* is either one ``.sds`` entry or one whole shard set (manifest
    plus blocks — a shard set is useless in parts, so it lives and dies as
    one).  Recency is file mtime: loads and shard opens touch their files,
    so mtime order is LRU order without any sidecar state.  Returns an
    accounting dict; a disabled or missing cache prunes nothing.

    ``model_slug`` restricts the sweep to one model's units (entries *and*
    shard sets; ``"iis"`` selects the unrestricted ones): only that model's
    bytes count against the budget and only its units are evicted — the
    surgical form of "this model's restricted builds grew too big".
    """
    if max_bytes < 0:
        raise ValueError("prune requires max_bytes >= 0")
    directory = cache_dir()
    report = {
        "max_bytes": max_bytes,
        "removed_units": 0,
        "removed_bytes": 0,
        "kept_units": 0,
        "kept_bytes": 0,
    }
    if model_slug is not None:
        report["model_slug"] = model_slug
    if directory is None or not directory.is_dir():
        return report
    units: list[tuple[float, int, list[Path]]] = []
    for path in _entries(directory):
        if model_slug is not None and entry_model_slug(path) != model_slug:
            continue
        try:
            stat = path.stat()
        except OSError:
            continue
        units.append((stat.st_mtime, stat.st_size, [path]))
    for group in _shard_sets(directory):
        if model_slug is not None and shard_file_model_slug(group[0]) != model_slug:
            continue
        mtime = 0.0
        total = 0
        paths = []
        for path in group:
            try:
                stat = path.stat()
            except OSError:
                continue
            mtime = max(mtime, stat.st_mtime)
            total += stat.st_size
            paths.append(path)
        if paths:
            units.append((mtime, total, paths))
    units.sort(key=lambda unit: unit[0])
    remaining = sum(size for _, size, _ in units)
    for _, size, paths in units:
        if remaining <= max_bytes:
            report["kept_units"] += 1
            report["kept_bytes"] += size
            continue
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass
        remaining -= size
        report["removed_units"] += 1
        report["removed_bytes"] += size
    if _OBS.enabled and report["removed_units"]:
        _OBS.metrics.counter("sds.cache.pruned_units").inc(report["removed_units"])
    return report


def warm(n: int, rounds: int) -> dict:
    """Ensure ``SDS^rounds(s^n)`` is cached; build it packed if it is not.

    Works entirely in the integer domain — no vertex is ever constructed —
    so warming, e.g. from the CLI or a worker initializer, costs exactly one
    packed build the first time and one file probe afterwards.
    """
    from repro.topology.compact import build_sds_packed

    if n < 0 or rounds < 1:
        raise ValueError("warm requires n >= 0 and rounds >= 1")
    base_colors = tuple(range(n + 1))
    base_tops = (tuple(range(n + 1)),)
    key = structure_key(base_colors, base_tops, rounds)
    started = time.perf_counter()
    compact, outcome = load_or_build(
        key, lambda: build_sds_packed(base_colors, base_tops, rounds)
    )
    return {
        "key": key,
        "outcome": outcome,
        "tops": compact.top_count,
        "seconds": time.perf_counter() - started,
    }
