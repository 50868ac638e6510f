"""Per-edge crossing accounting: the diagnosis tool behind Fig. 5.

Every compiled crossing counts itself on its edge in the metrics
registry; ``edges_report`` lists the used edges busiest first.
"""

import pytest

from repro import BuildConfig, build_image
from repro.apps import make_get_payloads, make_set_payloads, run_redis_phase, start_redis


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[
                ["netstack"],
                ["sched"],
                ["alloc", "libc", "redis"],
            ],
            backend="mpk-shared",
        )
    )


def edges(image) -> list[tuple[str, str, str, int]]:
    """(caller, callee, kind, crossings) of every used edge."""
    return [
        (row["caller"], row["callee"], row["kind"], row["crossings"])
        for row in image.machine.cpu.metrics.edges_report()
    ]


def test_report_empty_before_traffic():
    image = build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )
    # Boot makes a few calls (stub resolution is lazy, sem creation at
    # listen time only), so the report may be empty or tiny — but never
    # contains unused edges.
    for _, _, _, crossings in edges(image):
        assert crossings > 0


def test_report_identifies_hot_edges(image):
    start_redis(image)
    run_redis_phase(
        image, make_set_payloads(32, 32, keyspace=16), window=4,
        expect_prefix=b"+OK",
    )
    run_redis_phase(
        image, make_get_payloads(100, 16), window=4, expect_prefix=b"$"
    )
    report = edges(image)
    assert report == sorted(report, key=lambda row: (-row[3], *row[:3]))
    used = {(caller, callee): (kind, n) for caller, callee, kind, n in report}
    # The Fig. 5 chain is visible: netstack signals through LibC, LibC
    # wakes through the scheduler, redis drives the netstack.
    assert ("netstack", "libc") in used
    assert ("libc", "sched") in used
    assert ("redis", "netstack") in used
    # Cross-compartment edges carry the MPK gate kind; intra ones don't.
    kind, _ = used[("netstack", "libc")]
    assert kind == "mpk-shared"
    if ("redis", "libc") in used:
        assert used[("redis", "libc")][0] == "direct"
    # Semaphore signalling dominates: the netstack→libc edge sees at
    # least one crossing per request packet.
    assert used[("netstack", "libc")][1] >= 132


def test_report_unwraps_guards():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="mpk-shared",
            api_guards=True,
        )
    )
    from repro.apps import run_iperf

    run_iperf(image, 1024, 1 << 16)
    kinds = {kind for _, _, kind, _ in edges(image)}
    assert "mpk-shared" in kinds
    assert "guarded" not in kinds  # report shows the underlying gate
