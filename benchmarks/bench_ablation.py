"""Ablations over FlexOS design choices (DESIGN.md §7).

Each ablation isolates one knob the paper's design discussion calls
out: gate register clearing, allocator placement under SH, semaphore
placement (the Fig. 5 anomaly), and greedy-vs-exact compartment
coloring.
"""

from __future__ import annotations

import itertools
import random
import time

from repro import BuildConfig, build_image
from repro.apps import (
    make_get_payloads,
    make_set_payloads,
    run_iperf,
    run_redis_phase,
    start_redis,
)
from repro.core.coloring import (
    dsatur_coloring,
    exact_coloring,
    verify_coloring,
)

SH_SUITE = ("asan", "ubsan", "stackprotector", "cfi")


def _iperf_mbps(**kw) -> float:
    image = build_image(
        BuildConfig(libraries=["libc", "netstack", "iperf"], **kw)
    )
    return run_iperf(image, 256, 1 << 19).throughput_mbps


def _redis_mreq(**kw) -> float:
    image = build_image(
        BuildConfig(libraries=["libc", "netstack", "redis"], **kw)
    )
    start_redis(image)
    run_redis_phase(
        image, make_set_payloads(64, 50, keyspace=64), window=8,
        expect_prefix=b"+OK",
    )
    return run_redis_phase(
        image, make_get_payloads(300, 64), window=8, expect_prefix=b"$"
    ).mreq_s


def test_ablation_register_clearing(report):
    """Clearing scratch registers at MPK crossings: security vs speed."""
    groups = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
    with_clear = _iperf_mbps(
        compartments=groups, backend="mpk-shared", clear_registers=True
    )
    without = _iperf_mbps(
        compartments=groups, backend="mpk-shared", clear_registers=False
    )
    report.row(
        "Ablations",
        f"register clearing: on {with_clear:7.0f} Mb/s, off "
        f"{without:7.0f} Mb/s ({without / with_clear:4.2f}x faster off)",
    )
    report.value(
        "ablation", "register_clearing_mbps", {"on": with_clear, "off": without}
    )
    assert without >= with_clear


def test_ablation_allocator_placement(report):
    """Global vs per-compartment allocator under netstack SH (Fig. 4)."""
    groups = [["netstack"], ["sched", "alloc", "libc", "redis"]]
    local = _redis_mreq(
        compartments=groups, backend="none",
        hardening={"netstack": SH_SUITE},
    )
    global_alloc = _redis_mreq(
        compartments=groups, backend="none",
        hardening={"netstack": SH_SUITE}, allocator_policy="global",
    )
    report.row(
        "Ablations",
        f"allocator under SH: local {local:5.3f} Mreq/s, global "
        f"{global_alloc:5.3f} Mreq/s ({local / global_alloc:4.2f}x win "
        f"for per-compartment allocators)",
    )
    report.value(
        "ablation",
        "allocator_placement_mreq_s",
        {"local": local, "global": global_alloc},
    )
    assert local > global_alloc


def test_ablation_semaphore_placement(report):
    """The Fig. 5 anomaly: moving sched next to the netstack does not
    help while the semaphores stay in LibC's compartment — but moving
    *LibC* in with them does."""
    separate = _redis_mreq(
        compartments=[["netstack"], ["sched"], ["alloc", "libc", "redis"]],
        backend="mpk-shared",
    )
    merged_sched = _redis_mreq(
        compartments=[["netstack", "sched"], ["alloc", "libc", "redis"]],
        backend="mpk-shared",
    )
    merged_libc = _redis_mreq(
        compartments=[["netstack", "sched", "libc"], ["alloc", "redis"]],
        backend="mpk-shared",
    )
    report.row(
        "Ablations",
        f"semaphore placement: NW/Sched/Rest {separate:5.3f}, "
        f"NW+Sched/Rest {merged_sched:5.3f} (no better), "
        f"NW+Sched+LibC/Rest {merged_libc:5.3f} Mreq/s",
    )
    report.value(
        "ablation",
        "semaphore_placement_mreq_s",
        {
            "NW/Sched/Rest": separate,
            "NW+Sched/Rest": merged_sched,
            "NW+Sched+LibC/Rest": merged_libc,
        },
    )
    # Merging only the scheduler barely helps...
    assert merged_sched < separate * 1.08
    # ...but bringing LibC (the semaphores) along recovers real time.
    assert merged_libc > merged_sched * 1.05


def test_ablation_api_guards(report):
    """Cost of the §5 trust-boundary wrappers (preconditions + pointer
    validation on every cross-compartment call)."""
    groups = [["netstack"], ["sched", "alloc", "libc", "redis"]]
    plain = _redis_mreq(compartments=groups, backend="mpk-shared")
    guarded = _redis_mreq(
        compartments=groups, backend="mpk-shared", api_guards=True
    )
    report.row(
        "Ablations",
        f"API boundary guards: off {plain:5.3f} Mreq/s, on "
        f"{guarded:5.3f} Mreq/s ({plain / guarded:4.2f}x cost for "
        f"boundary checking)",
    )
    report.value("ablation", "api_guards_mreq_s", {"off": plain, "on": guarded})
    assert guarded < plain


def test_ablation_httpd_three_domains(report):
    """A three-trust-domain web server (netstack | vfs | app) across
    backends — the crossing topology the paper's intro motivates."""
    from repro.apps import populate_files, run_closed_loop, start_httpd

    files = {"/index.html": b"x" * 512}
    requests = [b"GET /index.html\n"] * 200

    def measure(backend):
        image = build_image(
            BuildConfig(
                libraries=["libc", "netstack", "vfs", "httpd"],
                compartments=[
                    ["netstack"],
                    ["vfs"],
                    ["sched", "alloc", "libc", "httpd"],
                ],
                backend=backend,
            )
        )
        populate_files(image, files)
        start_httpd(image)
        return run_closed_loop(
            image, image.lib("httpd").PORT, requests, window=8,
            expect_prefix=b"200",
        )

    results = {
        backend: measure(backend)
        for backend in ("none", "cheri", "mpk-shared", "mpk-switched")
    }
    base = results["none"]
    for backend, result in results.items():
        p50 = result.latency_percentile(0.5)
        p99 = result.latency_percentile(0.99)
        report.row(
            "Ablations",
            f"httpd 3-domain / {backend:12s}: {result.mreq_s:6.3f} Mreq/s "
            f"({base.mreq_s / result.mreq_s:4.2f}x), p50 {p50:7.0f} ns, "
            f"p99 {p99:7.0f} ns",
        )
        report.value(
            "ablation",
            f"httpd_three_domains/{backend}",
            {"mreq_s": result.mreq_s, "p50_ns": p50, "p99_ns": p99},
        )
    assert base.mreq_s >= results["mpk-switched"].mreq_s


def _random_graph(n: int, p: float, seed: int):
    rng = random.Random(seed)
    nodes = [f"lib{i}" for i in range(n)]
    edges = {
        frozenset({a, b})
        for a, b in itertools.combinations(nodes, 2)
        if rng.random() < p
    }
    return nodes, edges


def test_ablation_coloring_quality(report):
    """DSATUR vs exact branch-and-bound on random conflict graphs."""
    gap = 0
    greedy_ms = 0.0
    exact_ms = 0.0
    for seed in range(20):
        nodes, edges = _random_graph(12, 0.35, seed)
        t0 = time.perf_counter()
        greedy = dsatur_coloring(nodes, edges)
        t1 = time.perf_counter()
        exact = exact_coloring(nodes, edges)
        t2 = time.perf_counter()
        assert verify_coloring(edges, greedy)
        assert verify_coloring(edges, exact)
        g = max(greedy.values()) + 1
        e = max(exact.values()) + 1
        assert e <= g
        gap += g - e
        greedy_ms = max(greedy_ms, (t1 - t0) * 1e3)
        exact_ms = max(exact_ms, (t2 - t1) * 1e3)
    # The milliseconds are host time: printed, never recorded.
    report.row(
        "Ablations",
        f"coloring: DSATUR used {gap} extra compartments over 20 random "
        f"12-library graphs (max {greedy_ms:.2f} ms greedy vs "
        f"{exact_ms:.2f} ms exact, host time)",
    )
    report.value("ablation", "coloring_extra_compartments", gap)
