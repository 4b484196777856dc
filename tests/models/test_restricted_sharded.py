"""Three-way differential: restricted shard builds + model-aware numpy kernel.

The model-native fast path has three independent implementations of
"solvability in a sub-IIS model at level ``b``":

1. the **object-level oracle** — :func:`restrict_subdivision` over the
   in-RAM subdivision (:mod:`repro.models.reference`), searched by the
   in-RAM kernel;
2. the **restricted streaming shard builder** — orbit-pruned,
   keep-before-materialize (:func:`repro.topology.shards.build_sds_sharded`
   with ``model=``), searched by the packed int kernel;
3. the **model-aware numpy mask kernel** — the same store compiled into
   the uint64 array representation (:mod:`repro.core.mask_kernel`).

They must agree exactly: the sharded store reassembles to the compact
restricted build payload-for-payload, the numpy kernel matches the int
kernel map-for-map and statistic-for-statistic, and both match the oracle's
verdict — for every zoo model family including a ``&`` composition, at
Hypothesis-random ``(n, b, shard size)``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solvability import SearchOptions, _search_map, probe_level_sharded
from repro.models import (
    IIS_MODEL,
    Adversary,
    KConcurrent,
    KSetConsensus,
    TResilient,
    compose_models,
)
from repro.models.base import ModelRestrictionEmpty
from repro.models.packed import build_sds_packed_restricted
from repro.models.reference import restrict_subdivision
from repro.obs import capture
from repro.tasks import (
    approximate_agreement_task,
    binary_consensus_task,
    set_consensus_task,
)
from repro.topology import sds_cache
from repro.topology.shards import ensure_sharded, open_sharded
from repro.topology.standard_chromatic import iterated_standard_chromatic_subdivision


@pytest.fixture(scope="module", autouse=True)
def _isolated_sds_cache(tmp_path_factory):
    old = os.environ.get("REPRO_SDS_CACHE_DIR")
    os.environ["REPRO_SDS_CACHE_DIR"] = str(tmp_path_factory.mktemp("sds-cache"))
    yield
    if old is None:
        del os.environ["REPRO_SDS_CACHE_DIR"]
    else:
        os.environ["REPRO_SDS_CACHE_DIR"] = old


def model_pool(n_colors: int):
    """Every zoo family plus a two-component ``&`` composition."""
    return [
        TResilient(0),
        TResilient(1),
        KConcurrent(1),
        KSetConsensus(1),
        KSetConsensus(2),
        Adversary(*(range(1, 1 << n_colors))),  # full adversary = identity runs
        compose_models(TResilient(1), KSetConsensus(2)),
    ]


class TestStoreEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 2),
        b=st.integers(1, 2),
        shard_size=st.integers(1, 300),
    )
    def test_restricted_sharded_reassembles_to_compact_build(
        self, data, n, b, shard_size, tmp_path_factory
    ):
        if n == 2 and b == 2:
            b = 1  # the (2, 2) case dominates the example budget
        n_colors = n + 1
        model = data.draw(st.sampled_from(model_pool(n_colors)), label="model")
        base_colors = tuple(range(n_colors))
        base_tops = (tuple(range(n_colors)),)
        directory = tmp_path_factory.mktemp("store")

        try:
            compact = build_sds_packed_restricted(base_colors, base_tops, b, model)
        except ModelRestrictionEmpty:
            with pytest.raises(ModelRestrictionEmpty):
                ensure_sharded(
                    base_colors,
                    base_tops,
                    b,
                    shard_size=shard_size,
                    directory=directory,
                    model=model,
                )
            return
        sharded = ensure_sharded(
            base_colors,
            base_tops,
            b,
            shard_size=shard_size,
            directory=directory,
            model=model,
        )
        assert sharded.model_fingerprint == model.fingerprint
        assert sharded.to_compact().to_payload() == compact.to_payload()

    def test_reopen_hits_and_wrong_model_misses(self, tmp_path):
        base_colors, base_tops = (0, 1, 2), ((0, 1, 2),)
        model = TResilient(1)
        built = ensure_sharded(
            base_colors, base_tops, 2, shard_size=64, directory=tmp_path, model=model
        )
        reopened = open_sharded(
            base_colors, base_tops, 2, shard_size=64, directory=tmp_path, model=model
        )
        assert reopened is not None
        assert reopened.top_count == built.top_count
        # A different model (or none) must not see the restricted manifest.
        assert (
            open_sharded(
                base_colors, base_tops, 2, shard_size=64, directory=tmp_path
            )
            is None
        )
        assert (
            open_sharded(
                base_colors,
                base_tops,
                2,
                shard_size=64,
                directory=tmp_path,
                model=TResilient(0),
            )
            is None
        )

    def test_iis_manifest_stays_byte_identical(self, tmp_path):
        """The identity model writes the exact pre-model shard files."""
        base_colors, base_tops = (0, 1), ((0, 1),)
        plain_dir, iis_dir = tmp_path / "plain", tmp_path / "iis"
        ensure_sharded(base_colors, base_tops, 2, shard_size=7, directory=plain_dir)
        ensure_sharded(
            base_colors, base_tops, 2, shard_size=7, directory=iis_dir, model=IIS_MODEL
        )
        plain_files = sorted(p.name for p in plain_dir.iterdir())
        iis_files = sorted(p.name for p in iis_dir.iterdir())
        assert plain_files == iis_files
        for name in plain_files:
            assert (plain_dir / name).read_bytes() == (iis_dir / name).read_bytes()


class TestThreeWayProbeParity:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), shard_size=st.integers(1, 400))
    def test_numpy_equals_int_equals_oracle(self, data, shard_size, tmp_path_factory):
        model = data.draw(st.sampled_from(model_pool(3)), label="model")
        task = data.draw(
            st.sampled_from(
                [binary_consensus_task(3), set_consensus_task(3, 2)]
            ),
            label="task",
        )
        directory = tmp_path_factory.mktemp("probe")
        numpy_map, numpy_report, numpy_extras = probe_level_sharded(
            task,
            1,
            options=SearchOptions(mask_backend="numpy"),
            shard_size=shard_size,
            directory=directory,
            model=model,
        )
        assert numpy_extras["backend"] == "numpy"
        int_map, int_report, int_extras = probe_level_sharded(
            task,
            1,
            options=SearchOptions(mask_backend="int"),
            shard_size=shard_size,
            directory=directory,
            model=model,
        )
        assert int_extras["backend"] == "int"
        # Exact first-map and full-statistics parity between the backends.
        assert numpy_map == int_map
        assert numpy_report.satisfiable == int_report.satisfiable
        assert numpy_report.nodes_explored == int_report.nodes_explored
        assert numpy_report.conflicts == int_report.conflicts
        assert numpy_report.backjumps == int_report.backjumps
        assert numpy_report.exhausted == int_report.exhausted
        assert numpy_report.vertices == int_report.vertices
        # Verdict parity with the object-level reference oracle.
        oracle = restrict_subdivision(
            iterated_standard_chromatic_subdivision(task.input_complex, 1), 1, model
        )
        oracle_map = _search_map(oracle, task, 2_000_000)[0]
        assert (oracle_map is not None) == numpy_report.satisfiable

    def test_every_zoo_model_compiles_on_numpy(self):
        """Zero ``UnsupportedByArrayKernel`` across the model zoo."""
        task = binary_consensus_task(3)
        for model in model_pool(3):
            _, _, extras = probe_level_sharded(
                task,
                1,
                options=SearchOptions(mask_backend="numpy"),
                shard_size=128,
                model=model,
            )
            assert extras["backend"] == "numpy", model.fingerprint


class TestParallelCensus:
    def test_parallel_census_is_bit_identical_to_serial(self, tmp_path):
        task = binary_consensus_task(3)
        model = TResilient(1)
        serial = probe_level_sharded(
            task,
            2,
            options=SearchOptions(mask_backend="numpy"),
            shard_size=20,
            directory=tmp_path,
            model=model,
        )
        assert serial[2]["shards"] > 1
        parallel = probe_level_sharded(
            task,
            2,
            options=SearchOptions(mask_backend="numpy"),
            shard_size=20,
            directory=tmp_path,
            model=model,
            max_workers=3,
        )
        assert parallel[2]["census_workers"] > 1
        assert serial[2]["census_workers"] == 0
        assert parallel[0] == serial[0]
        assert parallel[2]["collapse"] == serial[2]["collapse"]
        for field in ("satisfiable", "nodes_explored", "conflicts", "backjumps"):
            assert getattr(parallel[1], field) == getattr(serial[1], field)

    def test_parallel_census_identity_store(self, tmp_path):
        task = binary_consensus_task(3)
        serial = probe_level_sharded(
            task,
            1,
            options=SearchOptions(mask_backend="numpy"),
            shard_size=50,
            directory=tmp_path,
        )
        parallel = probe_level_sharded(
            task,
            1,
            options=SearchOptions(mask_backend="numpy"),
            shard_size=50,
            directory=tmp_path,
            max_workers=2,
        )
        assert parallel[0] == serial[0]
        assert parallel[2]["collapse"] == serial[2]["collapse"]


class TestFallbackCounter:
    def test_auto_fallback_increments_obs_counter(self):
        # 81 candidate outputs exceed the 64-bit domain word: auto degrades
        # to int and the degradation must be counted, not silent.
        task = approximate_agreement_task(2, 81)
        with capture() as session:
            _, _, extras = probe_level_sharded(
                task, 1, options=SearchOptions(mask_backend="auto")
            )
            assert extras["backend"] == "int"
            assert session.metrics.counter("kernel.mask_fallback").value == 1

    def test_numpy_success_leaves_counter_untouched(self):
        task = binary_consensus_task(2)
        with capture() as session:
            _, _, extras = probe_level_sharded(
                task,
                1,
                options=SearchOptions(mask_backend="auto"),
                model=TResilient(1),
            )
            assert extras["backend"] == "numpy"
            assert session.metrics.counter("kernel.mask_fallback").value == 0


class TestShardCacheAccounting:
    def test_info_and_prune_by_model_slug(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SDS_CACHE_DIR", str(tmp_path))
        base_colors, base_tops = (0, 1, 2), ((0, 1, 2),)
        model = TResilient(1)
        ensure_sharded(base_colors, base_tops, 2, shard_size=64)
        ensure_sharded(base_colors, base_tops, 2, shard_size=64, model=model)
        info = sds_cache.cache_info()
        assert set(info["shard_models"]) == {"iis", model.slug}
        assert info["shard_models"][model.slug]["sets"] == 1
        assert (
            sum(bucket["bytes"] for bucket in info["shard_models"].values())
            == info["shard_bytes"]
        )
        report = sds_cache.prune(0, model_slug=model.slug)
        assert report["removed_units"] == 1
        after = sds_cache.cache_info()
        assert set(after["shard_models"]) == {"iis"}
        # The identity store survived the slug-scoped prune.
        assert (
            open_sharded(base_colors, base_tops, 2, shard_size=64) is not None
        )
