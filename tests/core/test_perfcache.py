"""Persistent perf cache + parallel measurement for the explorer."""

import json

import pytest

from repro.core.autobench import measure_many, simulated_perf_fn
from repro.core.builder import library_defs
from repro.core.config import BuildConfig
from repro.core.explorer import Explorer
from repro.core.hardening import Deployment
from repro.core.metadata import LibrarySpec
from repro.core.perfcache import PerfCache, candidate_key
from repro.obs import exploration_metrics

LIBS = ["libc", "netstack", "iperf"]


def _deployment(coloring, choices=None):
    names = list(coloring)
    return Deployment(
        choices=choices or {name: () for name in names},
        specs={name: LibrarySpec(name=name) for name in names},
        coloring=coloring,
    )


def test_candidate_key_color_permutation_invariant():
    one = _deployment({"a": 0, "b": 1, "c": 0})
    two = _deployment({"a": 1, "b": 0, "c": 1})
    assert candidate_key(one, "iperf", "mpk-shared") == candidate_key(
        two, "iperf", "mpk-shared"
    )


def test_candidate_key_varies_with_context():
    d = _deployment({"a": 0, "b": 1})
    base = candidate_key(d, "iperf", "mpk-shared")
    assert candidate_key(d, "redis", "mpk-shared") != base
    assert candidate_key(d, "iperf", "vm-rpc") != base
    assert candidate_key(d, "iperf", "mpk-shared", scale=2) != base
    assert (
        candidate_key(d, "iperf", "mpk-shared", config_overrides={"heap": 1})
        != base
    )
    # Keys are stable JSON strings (usable across processes).
    assert json.loads(base)["workload"] == "iperf"


def test_perfcache_roundtrip(tmp_path):
    path = tmp_path / "cache.json"
    cache = PerfCache(path)
    assert len(cache) == 0
    assert cache.get("k") is None
    cache.put("k", 42.5)
    assert cache.get("k") == 42.5
    reloaded = PerfCache(path)
    assert reloaded.get("k") == 42.5
    assert len(reloaded) == 1


def test_perfcache_ignores_corrupt_and_mismatched_files(tmp_path):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert len(PerfCache(corrupt)) == 0
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"version": -1, "entries": {"k": 1.0}}))
    assert len(PerfCache(stale)) == 0


def test_perfcache_parallel_puts_all_persist(tmp_path):
    """Write-through saves must not drop concurrent entries (the
    persisted file is a snapshot; unsynchronised snapshots race)."""
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "cache.json"
    cache = PerfCache(path)
    keys = [f"k{i}" for i in range(64)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda k: cache.put(k, 1.0), keys))
    reloaded = PerfCache(path)
    assert len(reloaded) == len(keys)


def test_perfcache_none_path_is_process_local():
    cache = PerfCache(None)
    cache.put("k", 1.0)
    assert cache.get("k") == 1.0


def test_warm_cache_skips_all_builds(tmp_path):
    """Acceptance: a second simulation-backed exploration with a warm
    persistent cache performs zero image builds (obs counters)."""
    cache_path = tmp_path / "perf.json"
    defs = library_defs(BuildConfig(libraries=LIBS))

    cold = Explorer(defs)
    cold_perf = simulated_perf_fn(LIBS, workload="iperf", cache_path=cache_path)
    cold_best = cold.best_performance_meeting(["no-wild-writes"], perf_fn=cold_perf)
    assert len(cold_perf.perf_cache) > 0

    metrics = exploration_metrics()
    builds_before = metrics.counter("explore.builds")
    hits_before = metrics.counter("explore.perfcache.hits")

    warm = Explorer(defs)
    warm_perf = simulated_perf_fn(LIBS, workload="iperf", cache_path=cache_path)
    warm_best = warm.best_performance_meeting(["no-wild-writes"], perf_fn=warm_perf)

    assert metrics.counter("explore.builds") == builds_before
    assert metrics.counter("explore.perfcache.hits") > hits_before
    assert warm_best.key() == cold_best.key()
    # Cache hits skip the build entirely, so no snapshots either.
    assert warm_perf.snapshots == {}


def test_measure_many_matches_sequential():
    defs = library_defs(BuildConfig(libraries=LIBS))
    explorer = Explorer(defs)
    deployments = explorer.deployments

    sequential = simulated_perf_fn(LIBS, workload="iperf")
    expected = [sequential(d) for d in deployments]

    batched = simulated_perf_fn(LIBS, workload="iperf")
    got = batched.measure_many(deployments)
    assert got == expected
    # Duplicate inputs measure once but report per-input costs.
    doubled = batched.measure_many(deployments * 2)
    assert doubled == expected * 2


def test_measure_many_dedupes_builds():
    defs = library_defs(BuildConfig(libraries=LIBS))
    explorer = Explorer(defs)
    deployment = explorer.deployments[0]
    calls = []

    def perf(d):
        calls.append(d.key())
        return 1.0

    costs = measure_many(perf, [deployment, deployment, deployment])
    assert costs == [1.0, 1.0, 1.0]
    assert len(calls) == 1


def test_memo_key_is_partition_based():
    """Colorings differing only by color labels hit the in-process memo."""
    defs = library_defs(BuildConfig(libraries=LIBS))
    explorer = Explorer(defs)
    deployment = explorer.deployments[0]
    permuted_coloring = {
        name: (color + 1) % (deployment.num_compartments or 1)
        for name, color in deployment.coloring.items()
    }
    permuted = Deployment(
        choices=deployment.choices,
        specs=deployment.specs,
        coloring=permuted_coloring,
    )
    assert permuted.key() == deployment.key()

    perf = simulated_perf_fn(LIBS, workload="iperf")
    metrics = exploration_metrics()
    first = perf(deployment)
    builds_before = metrics.counter("explore.builds")
    second = perf(permuted)
    assert second == first
    assert metrics.counter("explore.builds") == builds_before
    assert len(perf.snapshots) == 1
