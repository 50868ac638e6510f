"""Table 1: iperf throughput with SH on individual components.

Paper setup: iperf with FlexOS components grouped into four trust
domains — network stack, scheduler, LibC, and the rest of the system
(including iperf itself) — running the GCC/clang hardening suite on
(a) one component only and (b) everything but that component, against
an unhardened baseline and a fully-hardened build.

Shape targets (paper, small recv buffer): scheduler-only ≈1%
overhead, network-stack-only ≈6%, LibC-only ≈2.3x, rest ≈1.18x;
hardening everything is the most expensive configuration (paper: 6x —
see EXPERIMENTS.md for the measured deviation and its cause).
"""

from __future__ import annotations

import functools

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_iperf

LIBRARIES = ["libc", "netstack", "iperf"]
#: Four trust domains: the table's component granularity.
COMPARTMENTS = [["netstack"], ["sched"], ["libc"], ["alloc", "iperf"]]
SH_SUITE = ("asan", "ubsan", "stackprotector", "cfi")
#: Component name → libraries hardened when "SH: C only" is selected.
COMPONENTS = {
    "Scheduler": ["sched"],
    "Network stack": ["netstack"],
    "LibC": ["libc"],
    "Rest of the system": ["iperf"],
}
ALL_LIBS = ["sched", "netstack", "libc", "iperf"]
#: Table 1's measurement point: a small recv buffer (CPU-bound regime).
BUFFER_SIZE = 128
TOTAL_BYTES = 1 << 19


@functools.cache
def measure(*hardened: str) -> float:
    """Throughput with ``hardened`` libraries under SH, measured once
    per module run (the simulation is deterministic)."""
    config = BuildConfig(
        libraries=LIBRARIES,
        compartments=COMPARTMENTS,
        backend="none",
        hardening={lib: SH_SUITE for lib in hardened},
    )
    image = build_image(config)
    return run_iperf(image, BUFFER_SIZE, TOTAL_BYTES).throughput_mbps


@pytest.mark.parametrize("component", list(COMPONENTS))
def test_table1_sh_placement(report, component):
    baseline = measure()
    libs = COMPONENTS[component]
    others = [lib for lib in ALL_LIBS if lib not in libs]
    only, all_but = measure(*libs), measure(*others)
    report.row(
        "Table1 iperf SH placement",
        f"{component:20s} SH-all-but-C: {all_but:7.0f} Mb/s "
        f"({baseline / all_but:4.2f}x)   SH-C-only: {only:7.0f} Mb/s "
        f"({baseline / only:4.2f}x)",
    )
    report.value(
        "table1",
        component,
        {"only_mbps": only, "all_but_mbps": all_but, "baseline_mbps": baseline},
    )


def test_table1_whole_system(report):
    baseline, everything = measure(), measure(*ALL_LIBS)
    report.row(
        "Table1 iperf SH placement",
        f"{'Entire system':20s} baseline: {baseline:7.0f} Mb/s   "
        f"SH everything: {everything:7.0f} Mb/s "
        f"({baseline / everything:4.2f}x)",
    )
    report.value(
        "table1",
        "Entire system",
        {"baseline_mbps": baseline, "all_sh_mbps": everything},
    )
    assert baseline / everything > 2.0


def test_table1_shape_claims(report):
    """Ordering claims: libc dominates, scheduler is ~free."""
    baseline = measure()
    slowdowns = {
        component: baseline / measure(*libs)
        for component, libs in COMPONENTS.items()
    }
    # "The performance impact strongly depends on the component
    # running with SH: the scheduler brings a 1% overhead while the
    # LibC has a 2.3x slowdown.  Interestingly, the slowdown with SH
    # for the network stack is low (6%)."
    assert slowdowns["Scheduler"] < 1.03
    assert slowdowns["Network stack"] < 1.15
    assert 1.05 < slowdowns["Rest of the system"] < 1.45
    assert slowdowns["LibC"] > 2.0
    assert slowdowns["LibC"] == max(slowdowns.values())
    report.row(
        "Table1 iperf SH placement",
        "shape claims verified: sched ~1x < netstack < rest << libc",
    )
