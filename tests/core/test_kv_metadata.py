"""Spec metadata for the storage libraries (blk, kv).

The new micro-libraries must be full citizens of the §2 pipeline:
their specs round-trip through the parser, pairwise compatibility
treats them like any other library, and design-space exploration over
a library set that includes them neither breaks nor perturbs the
coloring memo / perf-cache keys of pre-existing sets.
"""

import json

from repro.core.builder import library_defs
from repro.core.coloring import ColoringCache
from repro.core.compatibility import can_share, violations
from repro.core.config import BuildConfig
from repro.core.hardening import iter_deployments
from repro.core.perfcache import candidate_key
from repro.core.spec_parser import parse_spec
from repro.libos.blk.blkdev import BlockDeviceLibrary
from repro.libos.kv.store import KVStoreLibrary
from tests.core.reference import eager_deployments

BLK = parse_spec("blk", BlockDeviceLibrary.SPEC)
KV = parse_spec("kv", KVStoreLibrary.SPEC)


# --- spec_parser round-trip --------------------------------------------------


def test_blk_spec_roundtrips_through_describe():
    reparsed = parse_spec("blk", BLK.describe())
    assert reparsed.reads == BLK.reads
    assert reparsed.writes == BLK.writes
    assert reparsed.calls == BLK.calls
    assert reparsed.api == BLK.api
    assert reparsed.requires == BLK.requires


def test_kv_spec_roundtrips_through_describe():
    reparsed = parse_spec("kv", KV.describe())
    assert reparsed.reads == KV.reads
    assert reparsed.writes == KV.writes
    assert reparsed.calls == KV.calls
    assert reparsed.api == KV.api
    assert reparsed.requires == KV.requires


def test_kv_spec_content():
    assert "journal" in KV.api and "recover" in KV.api
    assert KV.requires is not None
    # Every exported entry point is an allowed inbound call target.
    assert set(KV.api) <= KV.requires.calls
    # blk models unmodified device code: wild accesses, no Requires.
    assert BLK.requires is None
    assert "blk_flush" in BLK.api


def test_library_defs_parse_storage_libraries():
    cfg = BuildConfig(libraries=["libc", "blk", "kv"], backend="none")
    defs = {d.name: d for d in library_defs(cfg)}
    assert {"libc", "blk", "kv", "sched", "alloc"} <= set(defs)
    assert defs["kv"].spec.requires is not None
    assert "blk::blk_flush" in defs["kv"].true_behavior["calls"]


# --- pairwise compatibility --------------------------------------------------


def test_wild_blk_cannot_share_with_kv():
    """kv's Requires clause shields it from its own unsafe device
    driver: colocating them needs either hardening or an explicit
    (trusted) compartment assignment."""
    assert not can_share(BLK, KV)
    categories = {v.category for v in violations(BLK, KV)}
    assert "write" in categories and "call" in categories
    # Directional: kv does not violate blk (blk has no Requires).
    assert violations(KV, BLK) == []


def test_bounded_caller_can_share_with_kv():
    client = parse_spec(
        "client",
        """
        [Memory access] Read(Own,Shared); Write(Shared)
        [Call] kv::journal, kv::get, kv::sync
        """,
    )
    assert can_share(client, KV)
    assert violations(client, KV) == []


def test_caller_of_internal_symbol_is_rejected():
    snooper = parse_spec(
        "snooper",
        """
        [Memory access] Read(Own); Write(Own)
        [Call] kv::_append_record
        """,
    )
    found = violations(snooper, KV)
    assert len(found) == 1 and found[0].category == "call"


# --- exploration over a storage library set ----------------------------------


def _storage_defs():
    return library_defs(
        BuildConfig(libraries=["libc", "blk", "kv"], backend="none")
    )


def test_iter_deployments_covers_storage_set():
    defs = _storage_defs()
    stats = {}
    lazy = list(iter_deployments(defs, stats=stats))
    eager = eager_deployments(defs)
    assert len(lazy) > 0
    assert [d.key() for d in lazy] == [d.key() for d in eager]
    # kv's Requires forces *unmodified* blk out of its compartment;
    # only hardened blk variants may legally colocate with kv.
    colocated = 0
    for deployment in lazy:
        for members in deployment.compartments:
            if {"blk", "kv"} <= set(members):
                colocated += 1
                assert deployment.choices["blk"] != ()
    assert colocated > 0  # hardening does open up denser layouts


def test_coloring_memo_survives_storage_exploration():
    """Exploring a kv/blk set does not invalidate memo entries of a
    pre-existing library set: re-running the old set on the shared
    cache is 100% hits."""
    cache = ColoringCache()
    old_defs = library_defs(
        BuildConfig(libraries=["libc", "netstack"], backend="none")
    )
    list(iter_deployments(old_defs, coloring_cache=cache))
    entries_before = len(cache)

    list(iter_deployments(_storage_defs(), coloring_cache=cache))
    assert len(cache) > entries_before  # new graphs, new entries

    misses_before = cache.misses
    hits_before = cache.hits
    list(iter_deployments(old_defs, coloring_cache=cache))
    assert cache.misses == misses_before  # old entries all still hit
    assert cache.hits == hits_before + entries_before


def test_candidate_keys_unperturbed_by_storage_libraries():
    """Perf-cache keys derive only from the deployment's own partition
    and context — registering kv/blk cannot invalidate cached
    measurements of unrelated deployments."""
    old_defs = library_defs(
        BuildConfig(libraries=["libc", "netstack", "iperf"], backend="none")
    )
    deployment = next(iter(iter_deployments(old_defs)))
    key = candidate_key(deployment, "iperf", "mpk-shared")
    payload = json.loads(key)
    flat = {name for members in payload["partition"] for name in members}
    assert "kv" not in flat and "blk" not in flat

    # Keys over kv deployments are deterministic and context-sensitive.
    storage = next(iter(iter_deployments(_storage_defs())))
    kv_key = candidate_key(storage, "redis", "mpk-shared")
    assert kv_key == candidate_key(storage, "redis", "mpk-shared")
    assert kv_key != candidate_key(storage, "redis", "vm-rpc")
    assert "kv" in {
        name
        for members in json.loads(kv_key)["partition"]
        for name in members
    }
