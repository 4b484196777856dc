"""Out-of-core ``SDS^b``: the streaming shard builder and its on-disk layout.

``build_sds_packed`` holds every final-round top in RAM, which caps the
reachable depth: ``SDS^4(s^3)`` has ``75^4 = 31,640,625`` tops and cannot
live as one Python object graph.  This module streams the *final* round to
disk instead: the rounds below the last are vertex-scale (tiny — 421,875
tops at ``b = 4`` is the largest below-final level ever built here) and stay
in RAM, while final-round tops are emitted into fixed-size **shard blocks**
written as they fill.  Peak residency is bounded by one shard block plus the
vertex-scale tables (colors, views, carrier masks and the gluing dict are
all per-vertex, not per-top) — the OOM-smoke bench target runs the builder
under a hard ``RLIMIT_AS`` to keep that claim honest.

On-disk layout (all files in the :mod:`repro.topology.sds_cache` directory,
``marshal`` blobs of pure int/bytes data like the ``.sds`` entries):

* ``<schema>-r<rev>-<key>.manifest`` — base structure, the below-final
  levels, final colors/carriers, global star counts, and one record per
  shard (top range, owned vid range, byte size).
* ``<schema>-r<rev>-<key>.shard<i>`` — the ``i``-th top block as a local
  CSR table, the views of the vids *owned* by the block (vids are assigned
  in discovery order, so ownership ranges are contiguous and partition the
  final level), per-top carrier-union masks, and a per-shard star index
  (vid -> incident top ids), so consumers never thaw the subdivision
  wholesale.

The id assignment is identical to :func:`build_sds_packed` — both run the
one :func:`~repro.topology.compact.advance_round` loop — which the shard
test suite pins via payload equality of :meth:`to_compact`, and the golden
suite against fixed digests.
"""

from __future__ import annotations

import tempfile
import time
from array import array
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

from repro.obs import OBS as _OBS
from repro.topology import sds_cache
from repro.topology.compact import CompactSubdivision, advance_round
from repro.topology.vertex import Vertex

SHARD_SCHEMA = "repro-sds-shards-v1"

DEFAULT_SHARD_SIZE = 65536


class ShardBlock:
    """One resident shard: a top block plus its local indices.

    ``tops`` are global final-level vid tuples (CSR-packed); ``views`` are
    the snapshot views of the vids this block *owns* (global ids
    ``vid_lo .. vid_hi - 1``); ``union_masks[t]`` is the carrier union of
    local top ``t`` as a bitmask over base ids; the star index maps every
    vid appearing in the block (owned or not) to its local incident tops.
    """

    __slots__ = (
        "index",
        "top_lo",
        "vid_lo",
        "vid_hi",
        "top_indptr",
        "top_indices",
        "views",
        "union_masks",
        "star_vids",
        "star_indptr",
        "star_tops",
    )

    def __init__(
        self,
        index,
        top_lo,
        vid_lo,
        vid_hi,
        top_indptr,
        top_indices,
        views,
        union_masks,
        star_vids,
        star_indptr,
        star_tops,
    ):
        self.index = index
        self.top_lo = top_lo
        self.vid_lo = vid_lo
        self.vid_hi = vid_hi
        self.top_indptr = top_indptr
        self.top_indices = top_indices
        self.views = views
        self.union_masks = union_masks
        self.star_vids = star_vids
        self.star_indptr = star_indptr
        self.star_tops = star_tops

    @property
    def top_count(self) -> int:
        return len(self.top_indptr) - 1

    def top(self, local: int) -> tuple[int, ...]:
        return tuple(self.top_indices[self.top_indptr[local] : self.top_indptr[local + 1]])

    def tops(self) -> Iterator[tuple[int, ...]]:
        indptr = self.top_indptr
        indices = self.top_indices
        for local in range(len(indptr) - 1):
            yield tuple(indices[indptr[local] : indptr[local + 1]])

    def star_of(self, vid: int) -> tuple[int, ...]:
        """Global top ids of this block's tops incident to ``vid``."""
        vids = self.star_vids
        lo, hi = 0, len(vids)
        while lo < hi:
            mid = (lo + hi) // 2
            if vids[mid] < vid:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(vids) or vids[lo] != vid:
            return ()
        top_lo = self.top_lo
        return tuple(
            top_lo + t
            for t in self.star_tops[self.star_indptr[lo] : self.star_indptr[lo + 1]]
        )

    def to_payload(self, store_key: str) -> tuple:
        return (
            SHARD_SCHEMA,
            sds_cache.ENGINE_REV,
            store_key,
            self.index,
            self.top_lo,
            self.vid_lo,
            self.vid_hi,
            self.top_indptr.tobytes(),
            self.top_indices.tobytes(),
            self.views,
            self.union_masks,
            self.star_vids.tobytes(),
            self.star_indptr.tobytes(),
            self.star_tops.tobytes(),
        )

    @classmethod
    def from_payload(cls, payload: tuple, store_key: str) -> "ShardBlock":
        if (
            not isinstance(payload, tuple)
            or len(payload) != 14
            or payload[0] != SHARD_SCHEMA
            or payload[1] != sds_cache.ENGINE_REV
            or payload[2] != store_key
        ):
            raise ValueError("shard payload does not match the manifest")
        return cls(
            payload[3],
            payload[4],
            payload[5],
            payload[6],
            array("i", payload[7]),
            array("i", payload[8]),
            payload[9],
            payload[10],
            array("i", payload[11]),
            array("i", payload[12]),
            array("i", payload[13]),
        )


def _write_blob(path: Path, payload: tuple) -> int:
    """Atomic marshal write (tmp + replace); returns the byte size."""
    import marshal
    import os

    data = marshal.dumps(payload)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(data)


def _read_blob(path: Path) -> tuple:
    import marshal

    return marshal.loads(path.read_bytes())


class ShardedSubdivision:
    """``SDS^b`` with the final round resident on disk, one block at a time.

    Vertex-scale data (base structure, below-final levels, final colors and
    carrier masks, global star counts) lives on the object; top-scale data
    (the final tops, their carrier unions, the star index) is loaded shard
    by shard through :meth:`shard` / :meth:`iter_shards`.
    """

    __slots__ = (
        "base_colors",
        "base_tops",
        "rounds",
        "shard_size",
        "lower_levels",
        "colors",
        "carrier_masks",
        "star_counts",
        "top_count",
        "shard_records",
        "directory",
        "store_key",
        "model_fingerprint",
        "model_slug",
        "_tmpdir",
    )

    def __init__(
        self,
        base_colors,
        base_tops,
        rounds,
        shard_size,
        lower_levels,
        colors,
        carrier_masks,
        star_counts,
        top_count,
        shard_records,
        directory,
        store_key,
        tmpdir=None,
        model_fingerprint=None,
        model_slug=None,
    ):
        self.base_colors = tuple(base_colors)
        self.base_tops = tuple(base_tops)
        self.rounds = rounds
        self.shard_size = shard_size
        self.lower_levels = tuple(lower_levels)
        self.colors = colors
        self.carrier_masks = tuple(carrier_masks)
        self.star_counts = star_counts
        self.top_count = top_count
        self.shard_records = tuple(shard_records)
        self.directory = directory
        self.store_key = store_key
        self.model_fingerprint = model_fingerprint
        self.model_slug = model_slug
        self._tmpdir = tmpdir  # keeps a TemporaryDirectory alive if cache is off

    @property
    def vertex_count(self) -> int:
        return len(self.carrier_masks)

    @property
    def shard_count(self) -> int:
        return len(self.shard_records)

    def shard(self, index: int) -> ShardBlock:
        path = sds_cache.shard_path(
            self.directory, self.store_key, index, self.model_slug
        )
        block = ShardBlock.from_payload(_read_blob(path), self.store_key)
        if block.index != index:
            raise ValueError(f"shard file {path} carries index {block.index}")
        if _OBS.enabled:
            _OBS.metrics.counter("sds.shards.loaded").inc()
        return block

    def iter_shards(self) -> Iterator[ShardBlock]:
        """Yield blocks in order with at most one resident at a time."""
        gauge = _OBS.metrics.gauge("sds.shards.resident") if _OBS.enabled else None
        for record in self.shard_records:
            block = self.shard(record[0])
            if gauge is not None:
                gauge.set(1)
            yield block
            del block
        if gauge is not None:
            gauge.set(0)

    # -- reassembly ----------------------------------------------------------

    def final_views(self) -> list[tuple[int, ...]]:
        """All final-level views, reassembled from the owned shard ranges."""
        views: list[tuple[int, ...]] = [()] * self.vertex_count
        for block in self.iter_shards():
            views[block.vid_lo : block.vid_hi] = block.views
        return views

    def vertex_chain(self, base_verts: Sequence[Vertex]) -> list[Vertex]:
        """Intern the final-level vertices against actual base vertices.

        The decode path of the sharded kernel: walks the below-final levels
        (vertex-scale), then interns the final level from the shards' owned
        views.  No simplex and no complex is built.
        """
        if tuple(v.color for v in base_verts) != self.base_colors:
            raise ValueError("base vertices do not match the sharded subdivision")
        from repro.topology.compact import materialize_vertex_chain

        previous = materialize_vertex_chain(self.lower_levels, base_verts)
        colors = self.colors
        vertex_intern = Vertex._intern_trusted
        lookup = previous.__getitem__
        final: list[Vertex] = [None] * self.vertex_count  # type: ignore[list-item]
        for block in self.iter_shards():
            for vid in range(block.vid_lo, block.vid_hi):
                view = block.views[vid - block.vid_lo]
                final[vid] = vertex_intern(colors[vid], frozenset(map(lookup, view)))
        return final

    def to_compact(self) -> CompactSubdivision:
        """Reassemble the equivalent in-RAM packed subdivision (tests/small)."""
        views = self.final_views()
        tops: list[tuple[int, ...]] = []
        for block in self.iter_shards():
            tops.extend(block.tops())
        levels = list(self.lower_levels) + [(tuple(self.colors), tuple(views))]
        return CompactSubdivision(
            self.base_colors,
            self.base_tops,
            self.rounds,
            levels,
            tops,
            self.carrier_masks,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedSubdivision(rounds={self.rounds}, "
            f"vertices={self.vertex_count}, tops={self.top_count}, "
            f"shards={self.shard_count})"
        )


def _resolve_directory(directory) -> tuple[Path, object]:
    """The target directory plus an optional tmpdir guard to keep alive."""
    if directory is not None:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        return path, None
    cached = sds_cache.cache_dir()
    if cached is not None:
        cached.mkdir(parents=True, exist_ok=True)
        return cached, None
    guard = tempfile.TemporaryDirectory(prefix="repro-sds-shards-")
    return Path(guard.name), guard


def build_sds_sharded(
    base_colors: Sequence[int],
    base_tops: Sequence[tuple[int, ...]],
    rounds: int,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    directory=None,
    model=None,
) -> ShardedSubdivision:
    """Stream-build ``SDS^rounds`` into on-disk shard blocks.

    Every round runs the one discovery loop,
    :func:`~repro.topology.compact.advance_round`.  Rounds
    ``1 .. rounds - 1`` stay in RAM (their tops are the *next* round's
    inputs, and they are vertex-scale relative to the final level); the
    final round flushes every ``shard_size`` emitted tops into a shard file
    as the loop hands them over, so final-top residency never exceeds one
    block.

    With a non-identity ``model``, every round runs the model's template
    plan (:func:`repro.models.packed.model_plan`), as
    :func:`repro.models.packed.build_sds_packed_restricted` does: rejected
    rounds never instantiate their subtree, and final tops are
    participation-filtered *before* they enter the flush buffer,
    so a ``t_resilient(1)`` build at ``(3, 4)`` writes the restricted
    complex directly rather than materializing 31.6M tops and filtering.
    The shard set is keyed and named per model (the ``.m-<slug>`` segment,
    like restricted ``.sds`` entries); identity manifests stay
    byte-identical to the pre-model layout.  Raises
    :class:`~repro.models.base.ModelRestrictionEmpty` when the model admits
    no run of this complex.
    """
    if rounds < 1:
        raise ValueError("build_sds_sharded requires rounds >= 1")
    if shard_size < 1:
        raise ValueError("build_sds_sharded requires shard_size >= 1")
    restricted = model is not None and not model.is_identity
    model_fingerprint = model.fingerprint if restricted else None
    model_slug = model.slug if restricted else None
    target, guard = _resolve_directory(directory)
    key = sds_cache.structure_key(
        base_colors, base_tops, rounds, model_fingerprint=model_fingerprint
    )
    store_key = sds_cache.shard_store_key(key, shard_size)

    plan = keep = None
    if restricted:
        from repro.models.packed import model_plan, participation_mask_filter

        plan = model_plan(model)
        keep = participation_mask_filter(model, tuple(base_colors))

    tops = [tuple(top) for top in base_tops]
    carrier_masks: list[int] = [1 << i for i in range(len(base_colors))]
    colors: list[int] = list(base_colors)
    lower_levels: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
    for _ in range(rounds - 1):
        new_colors, views, new_masks = [], [], []
        spawned = advance_round(
            tops, colors, carrier_masks, new_colors, views, new_masks, plan
        )
        tops = list(chain.from_iterable(spawned))
        colors, carrier_masks = new_colors, new_masks
        lower_levels.append((tuple(colors), tuple(views)))

    # Final round: the same loop, flushing kept tops as each input top's
    # new tops arrive.
    new_colors = []
    new_views: list[tuple[int, ...]] = []
    new_masks = []
    buffer: list[tuple[int, ...]] = []
    star_counts: list[int] = []
    shard_records: list[tuple[int, int, int, int, int, int]] = []
    flushed_tops = 0
    flushed_vids = 0

    def flush(final: bool = False) -> None:
        nonlocal flushed_tops, flushed_vids
        if not buffer:
            # A trailing zero-top block still claims ownership of vids that
            # were instantiated after the last flush (restricted builds can
            # drop every top of a late vertex to participation) — without
            # it those vids would belong to no shard and the owned-range
            # reassembly (final_views / vertex_chain) would break.
            if not (final and len(new_colors) > flushed_vids):
                return
        index = len(shard_records)
        top_lo = flushed_tops
        vid_lo = flushed_vids
        vid_hi = len(new_colors)
        star_counts.extend([0] * (vid_hi - len(star_counts)))
        indptr = array("i", [0])
        indices = array("i")
        union_masks: list[int] = []
        star: dict[int, list[int]] = {}
        for local, top in enumerate(buffer):
            indices.extend(top)
            indptr.append(len(indices))
            mask = 0
            for vid in top:
                mask |= new_masks[vid]
                star_counts[vid] += 1
                incident = star.get(vid)
                if incident is None:
                    star[vid] = [local]
                else:
                    incident.append(local)
            union_masks.append(mask)
        star_vids = array("i", sorted(star))
        star_indptr = array("i", [0])
        star_tops = array("i")
        for vid in star_vids:
            star_tops.extend(star[vid])
            star_indptr.append(len(star_tops))
        block = ShardBlock(
            index,
            top_lo,
            vid_lo,
            vid_hi,
            indptr,
            indices,
            tuple(new_views[vid_lo:vid_hi]),
            tuple(union_masks),
            star_vids,
            star_indptr,
            star_tops,
        )
        path = sds_cache.shard_path(target, store_key, index, model_slug)
        nbytes = _write_blob(path, block.to_payload(store_key))
        shard_records.append((index, top_lo, top_lo + len(buffer), vid_lo, vid_hi, nbytes))
        flushed_tops += len(buffer)
        flushed_vids = vid_hi
        buffer.clear()
        if _OBS.enabled:
            _OBS.metrics.counter("sds.shards.written").inc()

    started = time.perf_counter()
    for group in advance_round(
        tops, colors, carrier_masks, new_colors, new_views, new_masks, plan
    ):
        if keep is None:
            buffer.extend(group)
        else:
            # Participation is judged before a top may enter the buffer.
            for top in group:
                mask = 0
                for vid in top:
                    mask |= new_masks[vid]
                if keep(mask):
                    buffer.append(top)
        if len(buffer) >= shard_size:
            flush()
    flush(final=True)

    if restricted and flushed_tops == 0:
        from repro.models.base import ModelRestrictionEmpty

        for record in shard_records:
            try:
                sds_cache.shard_path(target, store_key, record[0], model_slug).unlink()
            except OSError:
                pass
        raise ModelRestrictionEmpty(
            f"model {model.fingerprint} admits no run of this complex"
        )

    sharded = ShardedSubdivision(
        tuple(base_colors),
        tuple(tuple(top) for top in base_tops),
        rounds,
        shard_size,
        lower_levels,
        tuple(new_colors),
        new_masks,
        array("i", star_counts),
        flushed_tops,
        shard_records,
        target,
        store_key,
        tmpdir=guard,
        model_fingerprint=model_fingerprint,
        model_slug=model_slug,
    )
    manifest = (
        SHARD_SCHEMA,
        sds_cache.ENGINE_REV,
        store_key,
        key,
        sharded.base_colors,
        sharded.base_tops,
        rounds,
        shard_size,
        sharded.lower_levels,
        array("i", sharded.colors).tobytes(),
        sharded.carrier_masks,
        sharded.star_counts.tobytes(),
        sharded.top_count,
        sharded.shard_records,
    )
    if restricted:
        # Identity manifests stay byte-identical 14-tuples; restricted sets
        # append the fingerprint so an open can never cross models.
        manifest = manifest + (model_fingerprint,)
    _write_blob(sds_cache.manifest_path(target, store_key, model_slug), manifest)
    if _OBS.enabled:
        _OBS.metrics.counter("sds.shards.builds").inc()
        _OBS.metrics.histogram("sds.shards.build_seconds").observe(
            time.perf_counter() - started
        )
    return sharded


def open_sharded(
    base_colors: Sequence[int],
    base_tops: Sequence[tuple[int, ...]],
    rounds: int,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    directory=None,
    model=None,
) -> ShardedSubdivision | None:
    """Open an existing sharded build, or ``None`` on any mismatch.

    Mirrors :func:`repro.topology.sds_cache.load`: every failure mode is a
    miss.  A successful open touches the manifest and shard files so LRU
    pruning sees the set as recently used.  With a non-identity ``model``
    the model-keyed manifest is opened instead, and its trailing
    fingerprint must match exactly.
    """
    restricted = model is not None and not model.is_identity
    model_fingerprint = model.fingerprint if restricted else None
    model_slug = model.slug if restricted else None
    if directory is not None:
        target = Path(directory)
    else:
        target = sds_cache.cache_dir()
    if target is None or not target.is_dir():
        return None
    key = sds_cache.structure_key(
        base_colors, base_tops, rounds, model_fingerprint=model_fingerprint
    )
    store_key = sds_cache.shard_store_key(key, shard_size)
    manifest_file = sds_cache.manifest_path(target, store_key, model_slug)
    expected_len = 15 if restricted else 14
    try:
        manifest = _read_blob(manifest_file)
        if (
            not isinstance(manifest, tuple)
            or len(manifest) != expected_len
            or manifest[0] != SHARD_SCHEMA
            or manifest[1] != sds_cache.ENGINE_REV
            or manifest[2] != store_key
            or manifest[3] != key
            or (restricted and manifest[14] != model_fingerprint)
        ):
            return None
        records = tuple(manifest[13])
        for record in records:
            path = sds_cache.shard_path(target, store_key, record[0], model_slug)
            if path.stat().st_size != record[5]:
                return None
        sharded = ShardedSubdivision(
            manifest[4],
            manifest[5],
            manifest[6],
            manifest[7],
            manifest[8],
            tuple(array("i", manifest[9])),
            manifest[10],
            array("i", manifest[11]),
            manifest[12],
            records,
            target,
            store_key,
            model_fingerprint=model_fingerprint,
            model_slug=model_slug,
        )
    except (OSError, ValueError, EOFError, TypeError):
        return None
    sds_cache._touch(manifest_file)
    for record in records:
        sds_cache._touch(sds_cache.shard_path(target, store_key, record[0], model_slug))
    if _OBS.enabled:
        _OBS.metrics.counter("sds.shards.cache", outcome="hit").inc()
    return sharded


def ensure_sharded(
    base_colors: Sequence[int],
    base_tops: Sequence[tuple[int, ...]],
    rounds: int,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    directory=None,
    model=None,
) -> ShardedSubdivision:
    """Open the sharded build if present, else stream-build and persist it."""
    existing = open_sharded(
        base_colors,
        base_tops,
        rounds,
        shard_size=shard_size,
        directory=directory,
        model=model,
    )
    if existing is not None:
        return existing
    return build_sds_sharded(
        base_colors,
        base_tops,
        rounds,
        shard_size=shard_size,
        directory=directory,
        model=model,
    )
