"""Golden digests of the packed ``SDS^b`` builds.

Every packed vertex id comes from the orbit round loop's discovery order,
and those ids are the bytes of both on-disk formats: compact ``.sds``
entries and shard stores.  The payload-identity suites compare the builders
with each other, which cannot notice the ids moving while all builders
share one loop; this suite pins them against fixed digests instead.

Digests cover the *decoded* payloads (``repr`` of the payload tuples), not
file bytes: ``marshal`` sets reference flags by refcount, which differs
between interpreter versions.  For the same reason the shard byte sizes in
the manifest records are left out; the shard payloads themselves are
digested in full.
"""

import hashlib
import marshal

import pytest

from repro.models import IIS_MODEL, Adversary, KSetConsensus, TResilient
from repro.models.base import ModelRestrictionEmpty
from repro.models.packed import build_sds_packed_restricted
from repro.tasks import approximate_agreement_task
from repro.topology import sds_cache
from repro.topology.compact import CompactComplex, build_sds_packed
from repro.topology.shards import build_sds_sharded


def _bases():
    frozen = CompactComplex.freeze(approximate_agreement_task(3, 3).input_complex)
    return {
        "s2": ((0, 1, 2), ((0, 1, 2),)),
        "s3": ((0, 1, 2, 3), ((0, 1, 2, 3),)),
        "aa33": (tuple(frozen.colors), tuple(frozen.tops())),
    }


MODELS = {
    "iis": IIS_MODEL,
    "t_resilient(1)": TResilient(1),
    "k_set_consensus(2)": KSetConsensus(2),
    "adversary(3)": Adversary(3),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("ascii")).hexdigest()[:16]


def _sharded_payloads(sharded) -> tuple:
    """The manifest (shard byte sizes dropped) and every shard payload."""
    directory = sharded.directory
    manifest = marshal.loads(
        sds_cache.manifest_path(directory, sharded.store_key, sharded.model_slug)
        .read_bytes()
    )
    manifest = manifest[:13] + (tuple(r[:5] for r in manifest[13]),) + manifest[14:]
    shards = tuple(
        marshal.loads(
            sds_cache.shard_path(
                directory, sharded.store_key, record[0], sharded.model_slug
            ).read_bytes()
        )
        for record in sharded.shard_records
    )
    return manifest, shards


def golden_digests(base_name: str, directory) -> dict[str, str]:
    """``"b/model/builder" -> digest`` for one base over the whole grid."""
    colors, tops = _bases()[base_name]
    digests = {}
    for rounds in (1, 2):
        for model_name, model in MODELS.items():
            cell = f"{rounds}/{model_name}"
            try:
                if model.is_identity:
                    packed = build_sds_packed(colors, tops, rounds)
                else:
                    packed = build_sds_packed_restricted(colors, tops, rounds, model)
                digests[f"{cell}/packed"] = _digest(packed.to_payload())
            except ModelRestrictionEmpty:
                digests[f"{cell}/packed"] = "empty"
            for shard_size in (7, 64):
                target = directory / f"{rounds}-{model.slug}-{shard_size}"
                try:
                    sharded = build_sds_sharded(
                        colors,
                        tops,
                        rounds,
                        shard_size=shard_size,
                        directory=target,
                        model=model,
                    )
                    value = _digest(_sharded_payloads(sharded))
                except ModelRestrictionEmpty:
                    value = "empty"
                digests[f"{cell}/shards{shard_size}"] = value
    return digests


GOLDEN = {
    "s2": {
        "1/iis/packed": "5749ead50ee92723",
        "1/iis/shards7": "3075c3a861551ff4",
        "1/iis/shards64": "a05b17281425d726",
        "1/t_resilient(1)/packed": "1ab33fca811c7872",
        "1/t_resilient(1)/shards7": "a09296e6a18e7f8a",
        "1/t_resilient(1)/shards64": "352e46bb5bf8852c",
        "1/k_set_consensus(2)/packed": "d1bbb9595031d26a",
        "1/k_set_consensus(2)/shards7": "e08cd83c18e39054",
        "1/k_set_consensus(2)/shards64": "a654eec85f13acc6",
        "1/adversary(3)/packed": "9335c3be96974e32",
        "1/adversary(3)/shards7": "48e425671a4d47c9",
        "1/adversary(3)/shards64": "cdb49b95d1f0aed4",
        "2/iis/packed": "07b1a871018a2bd7",
        "2/iis/shards7": "5c90f6047d808ee0",
        "2/iis/shards64": "cdbb319603a0b8c5",
        "2/t_resilient(1)/packed": "d1e1f4a06d1b4b96",
        "2/t_resilient(1)/shards7": "7061ed2b25056021",
        "2/t_resilient(1)/shards64": "de4ca7796c5e9c73",
        "2/k_set_consensus(2)/packed": "14ed60729b9cd913",
        "2/k_set_consensus(2)/shards7": "55cc56897d074877",
        "2/k_set_consensus(2)/shards64": "5b424060d7af63b1",
        "2/adversary(3)/packed": "d3d842db3c93b714",
        "2/adversary(3)/shards7": "5ca21caedea96a6c",
        "2/adversary(3)/shards64": "efdc82474e9bdedc",
    },
    "s3": {
        "1/iis/packed": "39809a25318d577d",
        "1/iis/shards7": "97d45b2771d057e5",
        "1/iis/shards64": "7a5163d0e73caea4",
        "1/t_resilient(1)/packed": "e40b3874e2196fc3",
        "1/t_resilient(1)/shards7": "64efe99391661de7",
        "1/t_resilient(1)/shards64": "3cdf35d8a144c710",
        "1/k_set_consensus(2)/packed": "7a7bf1b1e48353c3",
        "1/k_set_consensus(2)/shards7": "5faa7a776aab19f8",
        "1/k_set_consensus(2)/shards64": "9b0a204c2f75be4f",
        "1/adversary(3)/packed": "5ab6c2d67bbdd921",
        "1/adversary(3)/shards7": "2841a7f4051facda",
        "1/adversary(3)/shards64": "660bc5063195105a",
        "2/iis/packed": "97743cdfacc98082",
        "2/iis/shards7": "9dd2f203c55226ad",
        "2/iis/shards64": "0ff7476aa420b21f",
        "2/t_resilient(1)/packed": "575637f273f9facb",
        "2/t_resilient(1)/shards7": "5d96f51b49224791",
        "2/t_resilient(1)/shards64": "12f02fd21d669599",
        "2/k_set_consensus(2)/packed": "999004a6ac44b42f",
        "2/k_set_consensus(2)/shards7": "bdc8d7b5cd817f09",
        "2/k_set_consensus(2)/shards64": "dc5637fb474fdfc3",
        "2/adversary(3)/packed": "e04f2f03fe6d5bcc",
        "2/adversary(3)/shards7": "8476e91a85e724d0",
        "2/adversary(3)/shards64": "8e963a0e7e6a7e57",
    },
    "aa33": {
        "1/iis/packed": "da17e84d7408c0f8",
        "1/iis/shards7": "0f9f91f2e05293b0",
        "1/iis/shards64": "cd23de0fd90faca0",
        "1/t_resilient(1)/packed": "54bbfb9c9dfc8bf1",
        "1/t_resilient(1)/shards7": "4be074f2f58e7439",
        "1/t_resilient(1)/shards64": "9fa884257ba6adeb",
        "1/k_set_consensus(2)/packed": "62488abacc8921d1",
        "1/k_set_consensus(2)/shards7": "12a5c3ee330321ab",
        "1/k_set_consensus(2)/shards64": "8a4232f40a7b99cf",
        "1/adversary(3)/packed": "8102c1f5b0261c94",
        "1/adversary(3)/shards7": "07900f8f048fd482",
        "1/adversary(3)/shards64": "b4919a7e9c8cabcd",
        "2/iis/packed": "0e800dbab336af8f",
        "2/iis/shards7": "b28507b906663605",
        "2/iis/shards64": "7eea0333a11edbbf",
        "2/t_resilient(1)/packed": "b7bbd80d505ce48a",
        "2/t_resilient(1)/shards7": "89f4f9c11b18a26b",
        "2/t_resilient(1)/shards64": "4e80499e6ddf7490",
        "2/k_set_consensus(2)/packed": "9c49fea88b8d6f48",
        "2/k_set_consensus(2)/shards7": "85cdf355aae39b0d",
        "2/k_set_consensus(2)/shards64": "3508baab0fe73152",
        "2/adversary(3)/packed": "3f03e2f54350f438",
        "2/adversary(3)/shards7": "8d3b456a80441f99",
        "2/adversary(3)/shards64": "1dd0c3cfeade5fef",
    },
}


@pytest.mark.parametrize("base_name", sorted(GOLDEN))
def test_packed_builds_match_golden_digests(base_name, tmp_path):
    assert golden_digests(base_name, tmp_path) == GOLDEN[base_name]
