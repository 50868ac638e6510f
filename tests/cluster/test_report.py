"""Report tooling over multi-machine runs (telemetry aggregation)."""

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.tools.report import machine_telemetry


def switches_of(image) -> int:
    return int(image.machine.cpu.metrics.counter("ctx_switches"))


def _loaded_cluster():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=True)
    client = ClusterClient(cluster)
    for index in range(10):
        client.set(b"key:%03d" % index, b"v%d" % index)
    client.drive()
    return cluster


def test_machine_telemetry_sums_across_all_machines():
    cluster = _loaded_cluster()
    images = cluster.images()
    assert len(images) == 4  # 2 primaries + 2 followers
    aggregated = machine_telemetry(images)
    assert aggregated["machines"] == 4
    singles = [image.machine.fastpath_stats() for image in images]
    for key in ("tlb_hits", "tlb_misses", "tlb_invalidations"):
        assert aggregated[key] == sum(stats[key] for stats in singles)
    for key in ("plans", "plan_hits", "plan_refreshes"):
        assert aggregated["gateplan"][key] == sum(
            stats["gateplan"][key] for stats in singles
        )
    # Every crossing runs on its gate's plan.
    assert aggregated["gateplan"]["plan_hits"] == sum(
        sum(image.machine.cpu.metrics.edge_counts().values())
        for image in images
    )
    # Multiple machines did real work: a singleton snapshot would
    # undercount (this is the regression the aggregation fixes).
    busiest = max(stats["tlb_hits"] for stats in singles)
    assert aggregated["tlb_hits"] > busiest
    lookups = aggregated["tlb_hits"] + aggregated["tlb_misses"]
    assert aggregated["tlb_hit_rate"] == aggregated["tlb_hits"] / lookups
    # No timer is ever armed: every scheduler round on every machine
    # found the wheel empty and swept nothing.
    switches = [switches_of(image) for image in images]
    assert aggregated["sched_rounds"] == sum(switches)
    assert aggregated["sched_rounds"] > max(switches)
    assert aggregated["wheel_sweeps"] == 0
    assert aggregated["wheel_cascades"] == 0


def test_machine_telemetry_sums_wheel_sweeps():
    from repro.libos.sched.base import IdleUntil
    from tests.golden.worlds import timer_image

    images = [timer_image("coop"), timer_image("verified")]
    for image in images:

        def sleeper():
            for deadline in (1_000.0, 300_000.0, 20_000_000.0):
                yield IdleUntil(deadline)

        image.spawn("sleeper", sleeper, image.lib("time"))
        image.run()
    aggregated = machine_telemetry(images)
    sweeps = [image.scheduler.timer_sweeps for image in images]
    assert min(sweeps) > 0
    assert aggregated["wheel_sweeps"] == sum(sweeps)
    assert aggregated["sched_rounds"] == sum(map(switches_of, images))
    assert aggregated["wheel_cascades"] == sum(
        image.scheduler.timer_cascades for image in images
    )


def test_machine_telemetry_single_machine_keeps_report_shape():
    from repro import BuildConfig, build_image

    image = build_image(BuildConfig(libraries=["libc"]))
    stats = machine_telemetry([image])
    assert stats["machines"] == 1
    for key in (
        "tlb_hits",
        "tlb_hit_rate",
        "gateplan",
        "wheel_sweeps",
        "wheel_cascades",
        "sched_rounds",
    ):
        assert key in stats


def test_machine_telemetry_sums_replayed_idle_polls():
    from repro.tools.report import render_text

    cluster = _loaded_cluster()
    images = cluster.images()
    aggregated = machine_telemetry(images)
    replays = [image.scheduler.idle_replays for image in images]
    # Fabric nodes look ahead into their inboxes, so most of their
    # empty polls replay without resuming the rx thread.
    assert aggregated["idle_replays"] == sum(replays) > 0
    assert aggregated["idle_replays"] < aggregated["sched_rounds"]
    report = {
        "layout": "",
        "workload": {"summary": ""},
        "crossings": [],
        "time_by_compartment_ns": {},
        "memory": [],
        "machine": aggregated,
    }
    assert (
        f"  idle polls: {aggregated['idle_replays']} of "
        f"{aggregated['sched_rounds']} scheduler rounds replayed"
    ) in render_text(report, show_machine=True).splitlines()
