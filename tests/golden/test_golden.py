"""Golden corpus: the simulated behaviour of gate crossings, pinned.

Each scenario runs a small deterministic simulation and reduces it to
its final ``clock_ns`` plus one sha256 per canonical part: the return
values or app numbers, ``cpu.snapshot()``, the metrics snapshot
(histograms included), and the Chrome trace when anything was traced.
``corpus.json`` holds the expected entries; the test re-runs every
scenario and compares.

Scenarios:

- ``trace.<backend>.seed<N>.<observers>`` — the randomized ``svc`` /
  ``caller`` channel trace (:mod:`tests.golden.worlds`), with observers
  never on, or flipped mid-trace and mid-park;
- ``image.<app>.<profile>.<observers>`` — redis and the Fig. 3 iperf
  image on eight isolation profiles, run untraced, traced, and with
  per-edge latency recording;
- ``profile.redis.<backend>`` — ``capture_profile`` around a redis run;
- ``parked.<backend>.<tracer>`` — two consumers parked in one
  ``libc->mq`` gate, with the tracer off or switched on mid-park;
- ``cluster.<backend>.<variant>`` — the replicated three-shard cluster
  under its seeded client load (stale route, failover, shard join),
  every machine untraced, traced, or attributing time to domains
  (``domain_time_ns`` joins the result); the parts hold one entry per
  machine, and the result the client's stats and acked set;
- ``cluster.none.sleepers`` — the same, with a periodic sleeper thread
  per machine whose timers expire amid runs of empty rx polls (its
  wake-up clocks join the result);
- ``cluster.verified.<tracer>`` — the same on the verified scheduler,
  whose contract checks charge every context switch;
- ``timers.<scheduler>`` — traced sleepers on every timer-wheel level,
  a busy yielding thread and an idle stretch, under the C and the
  verified scheduler;
- ``campaign.<kind>`` — one seeded campaign per kind (containment,
  recovery, cluster) on the kind's default sites and backends, seed 0;
  the entry keeps the site × backend matrix verbatim and pins every
  cell, with its verdict read into a fixed position.

Regenerate after an intended change to simulated behaviour with::

    python tests/golden/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

if __package__ in (None, ""):  # run as a script from a checkout
    _ROOT = pathlib.Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_named_workload
from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.obs import capture_profile, chrome_trace
from repro.resilience.campaign import run_campaign
from tests.golden.worlds import (
    BACKENDS,
    AttributedCluster,
    SleeperCluster,
    TracedCluster,
    TracedVerifiedCluster,
    VerifiedCluster,
    fig3_config,
    feed,
    mq_image,
    park_consumers,
    redis_config,
    run_cluster_load,
    run_timers,
    run_trace,
    timer_image,
)

CORPUS = pathlib.Path(__file__).with_name("corpus.json")

SH_SUITE = ("asan", "ubsan", "stackprotector", "cfi")

#: name -> (backend, hardening, library the app's queue edge targets).
PROFILES = {
    "mpk-shared": ("mpk-shared", {}, None),
    "mpk-switched": ("mpk-switched", {}, None),
    "vm-rpc": ("vm-rpc", {}, None),
    "cheri": ("cheri", {}, None),
    "sh-asan": ("mpk-shared", {"netstack": ("asan",)}, None),
    "sh-dfi": ("mpk-shared", {"netstack": ("dfi",)}, None),
    "fig4": ("none", {"netstack": SH_SUITE}, None),
    "mpk-shared+queue": ("mpk-shared", {}, "netstack"),
}

#: app -> (config factory, workload parameters).
IMAGES = {
    "redis": (redis_config, {"sets": 24, "gets": 60, "window": 4}),
    "iperf": (fig3_config, {"buffer_size": 256, "total_bytes": 1 << 15}),
}

REDIS_PROFILE_PARAMS = {"sets": 16, "gets": 40, "window": 4}

#: Campaign kind -> the run its corpus scenario pins, at seed 0 on the
#: kind's default sites and backends.  Two cluster schedules cover the
#: ``seed + 7919 * k`` derivation.
CAMPAIGNS = {
    "containment": {"schedules": 1},
    "recovery": {"schedules": 1},
    "cluster": {"schedules": 2, "sets": 24},
}

#: Parts an entry keeps verbatim; it pins the others by sha256.
PLAIN = ("clock_ns", "matrix")


def _parts(machine, result) -> dict:
    """The canonical parts of one finished scenario."""
    cpu = machine.cpu
    tracer = machine.obs.tracer
    return {
        "clock_ns": cpu.clock_ns,
        "result": result,
        "snapshot": cpu.snapshot(),
        "metrics": cpu.metrics.snapshot(),
        "trace": chrome_trace(tracer) if tracer.events else None,
    }


def _digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _entry(parts: dict) -> dict:
    return {
        name: value if name in PLAIN else _digest(value)
        for name, value in parts.items()
        if value is not None
    }


def _trace_scenario(backend: str, seed: int, observe: bool):
    def run():
        results, machine = run_trace(backend, seed, observe)
        return _parts(machine, results)

    return run


def _image_scenario(app: str, profile: str, observers: str):
    def run():
        config, params = IMAGES[app]
        backend, hardening, queue_to = PROFILES[profile]
        edges = {f"{app}->{queue_to}": "batch:8"} if queue_to else None
        image = build_image(config(backend, hardening, edges))
        if observers == "traced":
            image.enable_tracing()
        elif observers == "latency":
            image.machine.cpu.metrics.record_edge_latency = True
        _, numbers = run_named_workload(image, app, params)
        return _parts(image.machine, numbers)

    return run


def _profile_scenario(backend: str):
    def run():
        image = build_image(
            BuildConfig(libraries=["libc", "netstack", "redis"], backend=backend)
        )
        with capture_profile(image, "redis", REDIS_PROFILE_PARAMS) as cap:
            _, numbers = run_named_workload(image, "redis", REDIS_PROFILE_PARAMS)
        return _parts(image.machine, [numbers, cap.profile.to_dict()])

    return run


def _parked_scenario(backend: str, trace_mid_park: bool):
    def run():
        image = mq_image(backend)
        qid = image.call("mq", "q_new", 2)
        threads, returned, _ = park_consumers(image, qid, 2)
        if trace_mid_park:
            image.enable_tracing()
        feed(image, qid, 2)
        stacks = [len(thread.ctx_stack) for thread in threads]
        return _parts(image.machine, [sorted(returned), stacks])

    return run


def _cluster_scenario(backend: str, cls: type = RedisCluster):
    def run():
        cluster = cls(shards=("s0", "s1", "s2"), backend=backend, replicate=True)
        client = ClusterClient(cluster)
        run_cluster_load(cluster, client, seed=3)
        images = cluster.images()
        acked = sorted(
            [key.decode(), value.decode()] for key, value in client.acked.items()
        )
        result = [client.stats(), acked]
        if issubclass(cls, SleeperCluster):
            result.append(cluster.wakes)
        if issubclass(cls, AttributedCluster):
            result.append([image.machine.cpu.domain_time_ns for image in images])
        traced = issubclass(cls, TracedCluster)
        return {
            "clock_ns": {image.config.name: image.clock_ns for image in images},
            "result": result,
            "snapshot": [image.machine.cpu.snapshot() for image in images],
            "metrics": [image.machine.cpu.metrics.snapshot() for image in images],
            "trace": [chrome_trace(image.machine.obs.tracer) for image in images]
            if traced
            else None,
        }

    return run


def _timers_scenario(scheduler: str):
    def run():
        image = timer_image(scheduler)
        image.enable_tracing()
        return _parts(image.machine, run_timers(image))

    return run


def _campaign_scenario(kind: str):
    def run():
        result = run_campaign(kind, seed=0, **CAMPAIGNS[kind])
        cells = []
        for cell in result.cells:
            cell = dict(cell)
            cells.append([cell.pop("verdict"), cell])
        return {"matrix": result.matrix(), "result": cells}

    return run


def scenarios() -> dict:
    """Every corpus scenario: name -> zero-arg runner returning parts."""
    table = {}
    for backend in BACKENDS:
        for seed in (1, 7):
            for observe in (False, True):
                name = f"trace.{backend}.seed{seed}." + (
                    "observed" if observe else "unobserved"
                )
                table[name] = _trace_scenario(backend, seed, observe)
    for app in IMAGES:
        for profile in PROFILES:
            for observers in ("untraced", "traced", "latency"):
                name = f"image.{app}.{profile}.{observers}"
                table[name] = _image_scenario(app, profile, observers)
    for backend in BACKENDS:
        table[f"profile.redis.{backend}"] = _profile_scenario(backend)
    for backend in BACKENDS:
        for trace_mid_park in (False, True):
            name = f"parked.{backend}." + (
                "traced-mid-park" if trace_mid_park else "untraced"
            )
            table[name] = _parked_scenario(backend, trace_mid_park)
    for backend in ("none", "mpk-shared"):
        table[f"cluster.{backend}.untraced"] = _cluster_scenario(backend)
        table[f"cluster.{backend}.traced"] = _cluster_scenario(
            backend, TracedCluster
        )
        table[f"cluster.{backend}.attributed"] = _cluster_scenario(
            backend, AttributedCluster
        )
    table["cluster.none.sleepers"] = _cluster_scenario("none", SleeperCluster)
    table["cluster.verified.untraced"] = _cluster_scenario("none", VerifiedCluster)
    table["cluster.verified.traced"] = _cluster_scenario(
        "none", TracedVerifiedCluster
    )
    for scheduler in ("coop", "verified"):
        table[f"timers.{scheduler}"] = _timers_scenario(scheduler)
    for kind in CAMPAIGNS:
        table[f"campaign.{kind}"] = _campaign_scenario(kind)
    return table


SCENARIOS = scenarios()


def generate() -> dict:
    return {name: _entry(run()) for name, run in sorted(SCENARIOS.items())}


def _corpus() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_scenario():
    assert sorted(_corpus()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_corpus(name):
    assert _entry(SCENARIOS[name]()) == _corpus()[name]


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios to {CORPUS}")
