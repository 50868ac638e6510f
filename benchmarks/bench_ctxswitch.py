"""§4 microbenchmark: context-switch latency, verified vs C scheduler.

Paper: "The context switch latency of our verified scheduler is
218.6ns, 3x slower than the C scheduler (76.6ns)."
"""

from __future__ import annotations

import pytest

from repro import BuildConfig, build_image
from repro.libos.sched.base import YIELD

SWITCHES = 10_000


def measure(scheduler: str) -> float:
    image = build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
            scheduler=scheduler,
        )
    )
    libc = image.lib("libc")

    def body():
        for _ in range(SWITCHES):
            yield YIELD

    image.spawn("ping", body, libc)
    image.spawn("pong", body, libc)
    start = image.clock_ns
    switches = image.run(max_switches=2 * SWITCHES)
    return (image.clock_ns - start) / switches


@pytest.mark.parametrize("scheduler,expected", [("coop", 76.6), ("verified", 218.6)])
def test_ctx_switch_latency(report, scheduler, expected):
    latency = measure(scheduler)
    report.row(
        "Context switch microbenchmark",
        f"{scheduler:9s} scheduler: {latency:6.1f} ns/switch "
        f"(paper: {expected} ns)",
    )
    report.value("ctxswitch", scheduler, latency)
    assert latency == pytest.approx(expected, rel=0.02)


def test_verified_is_about_3x(report):
    coop = measure("coop")
    verified = measure("verified")
    ratio = verified / coop
    assert 2.5 < ratio < 3.3  # paper: "3x slower"
    report.row(
        "Context switch microbenchmark",
        f"verified/C ratio: {ratio:.2f}x (paper: ~3x)",
    )
