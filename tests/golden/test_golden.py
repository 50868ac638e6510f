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
- ``image.<app>.<profile>.reads`` — the same worlds with both snapshots
  and a counter read after every fifth load, from inside crossings
  (``reads-attributed`` also reads ``domain_time_ns``); the entry pins
  a sha256 of every read;
- ``profile.redis.<backend>`` — ``capture_profile`` around a redis run;
- ``parked.<backend>.<tracer>`` — two consumers parked in one
  ``libc->mq`` gate, with the tracer off or switched on mid-park;
- ``parked.<backend>.killed`` — the same two consumers, read while
  parked, one then killed inside the crossing and read again, the
  other fed;
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
- ``kv.durable.<backend>`` — the benchmark's durable redis image, kv
  flushed on every write, under SETs and DELs over a small keyspace;
  then ``compact`` (the load's one kv merge: it never seals a segment
  slot with enough slots in use to merge on its own), ``sync``, a
  reboot on the same medium and ``recover``.  The result holds the replies, both
  images' ``kv_stats()``, the recovery report, a digest of the
  recovered key → value map, the keys it lost or resurrected against
  a sequential model, and a sha256 of the medium's sectors;
- ``campaign.<kind>`` — one seeded campaign per kind (containment,
  recovery, cluster) on the kind's default sites and backends, seed 0;
  the entry keeps the site × backend matrix verbatim and pins every
  cell, with its verdict read into a fixed position;
- ``explorer.<libs>.<variants>`` — the design-space explorer on a
  library set that its callers explore, with the default SH variants or
  with ``alternatives``: every deployment's description in enumeration
  order with its analytic cost (default and ``vm-rpc``), strategy 1 at
  two budgets, strategy 2 per requirement and the most portable pick;
- ``explorer.profiled.<backend>`` — from the ``profile.redis.<backend>``
  capture, the profile-guided pick for ``no-wild-writes`` and the
  auto-tuned queue edges.  Both explorer kinds keep their answers
  verbatim.

Regenerate after an intended change to simulated behaviour with::

    python tests/golden/test_golden.py

A regeneration that should move simulated time only at the rounding
level is reviewed first: dump every scenario's full parts on the old
and the new tree, then compare the two dumps::

    python tests/golden/test_golden.py --dump old.json    # old tree
    python tests/golden/test_golden.py --dump new.json    # new tree
    python tests/golden/test_golden.py --compare old.json new.json

``--compare`` takes any two JSON documents (``benchmarks/results.json``
too).  It requires identical structure and identical non-float values,
reports how many floats moved and the worst relative drift, and fails
above :data:`DRIFT_BOUND`.
"""

from __future__ import annotations

import argparse
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
from repro.cluster.cluster import CLUSTER_LIBRARIES, RedisCluster
from repro.core.builder import library_defs
from repro.core.explorer import (
    Explorer,
    auto_tune_queue_edges,
    crossing_cost_fn,
    profiled_cost_fn,
)
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
    run_kv_durable,
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

#: Library sets the explorer's callers explore: the portability tests,
#: the bench pipeline, CI's profile smoke and ``redis_tradeoffs.py``,
#: and ``select_shard_profile``.
EXPLORED = (
    ["libc", "netstack", "iperf"],
    ["libc", "netstack", "vfs", "iperf"],
    ["libc", "netstack", "redis"],
    list(CLUSTER_LIBRARIES),
)

#: Parts an entry keeps verbatim; it pins the others by sha256.
PLAIN = ("clock_ns", "matrix", "reads", "explorer")


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


def _canonical(value) -> bytes:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return blob.encode()


def _digest(value) -> str:
    return hashlib.sha256(_canonical(value)).hexdigest()


def _reads(cpu, attribute: bool = False) -> list:
    """What an observer reads mid-run: both snapshots and one counter
    (and, when attributing, ``domain_time_ns``)."""
    read = [cpu.metrics.snapshot(), cpu.snapshot(), cpu.metrics.counter("loads")]
    if attribute:
        read.append(dict(cpu.domain_time_ns))
    return read


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


def _image_world(app: str, profile: str):
    """A freshly built ``app`` image on ``profile``, and its workload."""
    config, params = IMAGES[app]
    backend, hardening, queue_to = PROFILES[profile]
    edges = {f"{app}->{queue_to}": "batch:8"} if queue_to else None
    return build_image(config(backend, hardening, edges)), params


def _image_scenario(app: str, profile: str, observers: str):
    def run():
        image, params = _image_world(app, profile)
        if observers == "traced":
            image.enable_tracing()
        elif observers == "latency":
            image.machine.cpu.metrics.record_edge_latency = True
        _, numbers = run_named_workload(image, app, params)
        return _parts(image.machine, numbers)

    return run


def _reads_scenario(app: str, profile: str, attribute: bool):
    def run():
        (clock, numbers, snapshot, domain_time), reads = _run_image(
            app, profile, observe=True, attribute=attribute
        )
        parts = {"clock_ns": clock, "result": numbers, "snapshot": snapshot}
        if attribute:
            parts["domain_time"] = domain_time
        return {**parts, "reads": reads}

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


def _describe(deployment) -> str | None:
    return deployment.describe() if deployment is not None else None


def _explorer_scenario(libraries: list[str], alternatives: bool):
    def run():
        defs = library_defs(BuildConfig(libraries=libraries))
        explorer = Explorer(defs, alternatives)
        analytic = crossing_cost_fn(defs)
        vm_rpc = crossing_cost_fn(defs, backend="vm-rpc")
        deployments = explorer.deployments
        costs = sorted(analytic(deployment) for deployment in deployments)
        requirements = ["no-wild-writes", "isolated:netstack"]
        if "redis" in libraries:
            requirements.append("write-protected:redis")
        portable = explorer.most_portable(["no-wild-writes"])
        answers = {
            "deployments": [
                [deployment.describe(), analytic(deployment), vm_rpc(deployment)]
                for deployment in deployments
            ],
            "max_security_within_budget": [
                [budget, _describe(explorer.max_security_within_budget(budget))]
                for budget in (1e9, costs[len(costs) // 2])
            ],
            "best_performance_meeting": [
                [requirement, _describe(explorer.best_performance_meeting([requirement]))]
                for requirement in requirements
            ],
            "most_portable": [portable[0].describe(), portable[1]],
        }
        return {"explorer": answers}

    return run


def _profiled_explorer_scenario(backend: str):
    def run():
        libraries = ["libc", "netstack", "redis"]
        image = build_image(BuildConfig(libraries=libraries, backend=backend))
        with capture_profile(image, "redis", REDIS_PROFILE_PARAMS) as cap:
            run_named_workload(image, "redis", REDIS_PROFILE_PARAMS)
        profile = cap.profile
        cost = profiled_cost_fn(profile)
        explorer = Explorer(library_defs(BuildConfig(libraries=libraries)))
        pick = explorer.best_performance_meeting(["no-wild-writes"], perf_fn=cost)
        answers = {
            "pick": [pick.describe(), cost(pick)],
            "auto_tune_queue_edges": auto_tune_queue_edges(profile),
        }
        return {"explorer": answers}

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


def _parked_kill_scenario(backend: str):
    def run():
        image = mq_image(backend)
        cpu = image.machine.cpu
        qid = image.call("mq", "q_new", 2)
        threads, returned, _ = park_consumers(image, qid, 2)
        reads = [_reads(cpu)]
        image.scheduler.kill_thread(threads[0])
        reads.append(_reads(cpu))
        feed(image, qid, 1)
        stacks = [len(thread.ctx_stack) for thread in threads]
        parts = _parts(image.machine, [sorted(returned), stacks])
        return {**parts, "reads": _digest(reads)}

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


def _medium_digest(medium) -> str:
    digest = hashlib.sha256()
    for index in sorted(medium.sectors):
        digest.update(index.to_bytes(4, "big") + medium.sectors[index])
    return digest.hexdigest()


def _kv_durable_scenario(backend: str):
    def run():
        world = run_kv_durable(backend)
        images = world["images"]
        recovered, model = world["recovered"], world["model"]
        pairs = sorted(
            [key.decode(), value.decode()] for key, value in recovered.items()
        )
        result = {
            "replies": [reply.decode() for reply in world["replies"]],
            "kv_stats": world["kv_stats"],
            "recover": world["report"],
            "recovered": _digest(pairs),
            "lost": sorted(
                key.decode() for key in model if recovered.get(key) != model[key]
            ),
            "resurrected": sorted(
                key.decode() for key in recovered if key not in model
            ),
            "medium": _medium_digest(world["medium"]),
        }
        return {
            "clock_ns": [image.clock_ns for image in images],
            "result": result,
            "snapshot": [image.machine.cpu.snapshot() for image in images],
            "metrics": [image.machine.cpu.metrics.snapshot() for image in images],
        }

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
            table[f"image.{app}.{profile}.reads"] = _reads_scenario(
                app, profile, False
            )
    table["image.redis.mpk-switched.reads-attributed"] = _reads_scenario(
        "redis", "mpk-switched", True
    )
    for backend in BACKENDS:
        table[f"profile.redis.{backend}"] = _profile_scenario(backend)
    for backend in BACKENDS:
        for trace_mid_park in (False, True):
            name = f"parked.{backend}." + (
                "traced-mid-park" if trace_mid_park else "untraced"
            )
            table[name] = _parked_scenario(backend, trace_mid_park)
        table[f"parked.{backend}.killed"] = _parked_kill_scenario(backend)
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
    for backend in ("none", "mpk-switched"):
        table[f"kv.durable.{backend}"] = _kv_durable_scenario(backend)
    for kind in CAMPAIGNS:
        table[f"campaign.{kind}"] = _campaign_scenario(kind)
    for libraries in EXPLORED:
        for alternatives in (False, True):
            name = f"explorer.{','.join(libraries)}." + (
                "alternatives" if alternatives else "default"
            )
            table[name] = _explorer_scenario(libraries, alternatives)
    for backend in BACKENDS:
        table[f"explorer.profiled.{backend}"] = _profiled_explorer_scenario(backend)
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


def _run_image(app: str, profile: str, observe: bool, attribute: bool = False):
    """Run one image world; when ``observe``, read the counters, both
    snapshots (and, when attributing, ``domain_time_ns``) after every
    fifth load.  Returns what the run ends with, and a sha256 of every
    mid-run read (None when not observing)."""
    image, params = _image_world(app, profile)
    machine = image.machine
    cpu = machine.cpu
    cpu.attribute_time = attribute
    reads = hashlib.sha256() if observe else None
    if observe:
        load = machine.load
        loads = 0

        def observed_load(vaddr, size):
            nonlocal loads
            data = load(vaddr, size)
            loads += 1
            if loads % 5 == 0:
                reads.update(_canonical(_reads(cpu, attribute)))
            return data

        machine.load = observed_load
    _, numbers = run_named_workload(image, app, params)
    ended = cpu.clock_ns, numbers, cpu.snapshot(), cpu.domain_time_ns
    return ended, reads.hexdigest() if observe else None


@pytest.mark.parametrize(
    "app, profile, attribute",
    [(app, profile, False) for app in IMAGES for profile in PROFILES]
    + [("redis", "mpk-switched", True)],
)
def test_reading_counters_never_moves_the_clock(app, profile, attribute):
    """Observing is invisible to the simulation: reads mid-run leave
    the clock, the workload numbers and the final snapshot bit-identical."""
    unobserved, _ = _run_image(app, profile, observe=False, attribute=attribute)
    observed, _ = _run_image(app, profile, observe=True, attribute=attribute)
    assert repr(observed) == repr(unobserved)


#: Worst relative float drift a reviewed regeneration may show.
DRIFT_BOUND = 1e-9


def _walk(old, new, path: str, drifts: list, problems: list) -> None:
    """Collect float drifts and every other difference of two JSON trees."""
    if type(old) is not type(new):
        problems.append(f"{path}: {type(old).__name__} != {type(new).__name__}")
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            problems.append(f"{path}: keys {sorted(old.keys() ^ new.keys())}")
            return
        for key in old:
            _walk(old[key], new[key], f"{path}.{key}", drifts, problems)
    elif isinstance(old, list):
        if len(old) != len(new):
            problems.append(f"{path}: length {len(old)} != {len(new)}")
            return
        for index, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{index}]", drifts, problems)
    elif isinstance(old, float):
        if old != new:
            drifts.append((abs(old - new) / max(abs(old), abs(new)), path))
    elif old != new:
        problems.append(f"{path}: {old!r} != {new!r}")


def compare(old, new) -> tuple[list, list]:
    """``(float drifts, other differences)`` between two JSON trees.

    A drift is ``(relative difference, path)`` for each float that
    moved; every other difference — type, keys, length, or any
    non-float value — is a message naming its path.
    """
    drifts: list = []
    problems: list = []
    _walk(old, new, "$", drifts, problems)
    return drifts, problems


def test_compare_measures_float_drift_and_flags_everything_else():
    old = {"clock_ns": 100.0, "result": [1, "a", 2.0], "n": 3}
    drifts, problems = compare(old, {**old, "clock_ns": 100.0 + 1e-10})
    assert [path for _, path in drifts] == ["$.clock_ns"] and not problems
    assert drifts[0][0] == pytest.approx(1e-12, rel=1e-3)
    drifts, problems = compare(old, {**old, "result": [1, "b", 2.0], "n": 3.0})
    assert not drifts
    assert problems == ["$.result[1]: 'a' != 'b'", "$.n: int != float"]
    assert compare(old, {"n": 3})[1] == ["$: keys ['clock_ns', 'result']"]


def _dump(path: pathlib.Path) -> None:
    parts = {name: run() for name, run in sorted(SCENARIOS.items())}
    path.write_text(json.dumps(parts, sort_keys=True, default=repr) + "\n")
    print(f"wrote the parts of {len(parts)} scenarios to {path}")


def _compare(old_path: pathlib.Path, new_path: pathlib.Path) -> int:
    drifts, problems = compare(
        json.loads(old_path.read_text()), json.loads(new_path.read_text())
    )
    for problem in problems[:20]:
        print(f"differs: {problem}")
    worst, where = max(drifts, default=(0.0, "-"))
    print(
        f"{len(problems)} non-float differences; {len(drifts)} floats moved; "
        f"worst relative drift {worst:.3g} at {where}"
    )
    return 1 if problems or worst > DRIFT_BOUND else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden corpus.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--dump", metavar="FILE", type=pathlib.Path,
        help="write every scenario's full parts instead of regenerating",
    )
    mode.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), type=pathlib.Path,
        help=f"compare two dumps (or results files); fail above {DRIFT_BOUND:g}",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if args.dump:
        _dump(args.dump)
        return 0
    CORPUS.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} scenarios to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
