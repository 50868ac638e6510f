"""PKRU sealing: rogue WRPKRU is blocked, gates still work (paper §3).

"Since any compartment can modify its value, the MPK backend has to
prevent such unauthorized writes; it can do so via static analysis,
runtime checks or page-table sealing."  The simulated CPU only honours
WRPKRU from holders of the gate token.
"""

import pytest

from repro import BuildConfig, build_image
from repro.machine.faults import ProtectionFault
from repro.machine.mpk import pkru_all_access

LIBS = ["libc", "netstack", "iperf"]
GROUPS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]


@pytest.fixture
def image():
    return build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="mpk-shared")
    )


def test_rogue_wrpkru_blocked(image):
    """A hijacked compartment tries to grant itself full access."""
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("netstack").make_context("hijacked"))
    try:
        with pytest.raises(ProtectionFault, match="PKRU sealing"):
            cpu.wrpkru(pkru_all_access())
        # And the escalation did not happen: foreign memory still faults.
        victim = image.compartment_of("sched").alloc_region(64)
        with pytest.raises(ProtectionFault):
            image.machine.store(victim, b"x")
    finally:
        cpu.pop_context()


def test_rogue_wrpkru_with_wrong_token_blocked(image):
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("netstack").make_context())
    try:
        with pytest.raises(ProtectionFault):
            cpu.wrpkru(pkru_all_access(), token=object())
    finally:
        cpu.pop_context()


def test_gates_are_authorized(image):
    """Gate crossings perform two sealed WRPKRUs each and succeed."""
    iperf = image.lib("iperf")
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("iperf").make_context("app"))
    try:
        before = cpu.metrics.counters.get("wrpkru", 0)
        iperf.stub("netstack").call("listen", 6100)
        issued = cpu.metrics.counters["wrpkru"] - before
        # Two per crossing (entry + exit); listen itself plus its
        # internal netstack→libc sem_new crossing.
        assert issued >= 2 and issued % 2 == 0
    finally:
        cpu.pop_context()


def test_wrpkru_charges_even_when_blocked(image):
    """The instruction executes before the sealing trap fires."""
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("netstack").make_context())
    try:
        before = cpu.clock_ns
        with pytest.raises(ProtectionFault):
            cpu.wrpkru(0)
        assert cpu.clock_ns == before + image.machine.cost.wrpkru_ns
    finally:
        cpu.pop_context()


def test_crossing_cost_includes_wrpkru(image):
    """Gate cost accounting is unchanged by the sealing refactor."""
    iperf = image.lib("iperf")
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("iperf").make_context("app"))
    try:
        cost = image.machine.cost
        start = cpu.clock_ns
        iperf.stub("netstack").call("net_stats")
        elapsed = cpu.clock_ns - start
        floor = 2 * cost.wrpkru_ns + cost.gate_dispatch_ns + cost.call_ns
        assert elapsed >= floor
    finally:
        cpu.pop_context()
