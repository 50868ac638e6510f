"""Gate microbenchmark: null-call round-trip cost per isolation backend.

Not a paper figure, but the primitive underneath every end-to-end
number: the cost of one cross-compartment call carrying no payload,
for each gate flavour of Figure 2's menu.
"""

from __future__ import annotations

import functools

import pytest

from repro import BuildConfig, build_image

LIBRARIES = ["libc", "mq"]
ISOLATED = [["mq"], ["sched", "alloc", "libc"]]
CALLS = 2000

BACKENDS = ["none", "cheri", "mpk-shared", "mpk-switched", "vm-rpc"]


@functools.cache
def null_call_cost(backend: str, clear_registers: bool = True) -> float:
    """Average simulated cost of mq.q_len (a near-empty export),
    measured once per module run (the simulation is deterministic)."""
    image = build_image(
        BuildConfig(
            libraries=LIBRARIES,
            compartments=ISOLATED,
            backend=backend,
            clear_registers=clear_registers,
        )
    )
    qid = image.call("mq", "q_new", 4)
    mq = image.lib("mq")
    libc = image.lib("libc")
    stub = libc.stub("mq")
    context = libc.compartment.make_context("bench")
    image.machine.cpu.push_context(context)
    try:
        start = image.clock_ns
        for _ in range(CALLS):
            stub.call("q_len", qid)
        return (image.clock_ns - start) / CALLS
    finally:
        image.machine.cpu.pop_context()


@pytest.mark.parametrize("backend", BACKENDS)
def test_gate_null_call(report, backend):
    cost = null_call_cost(backend)
    report.row("Gate null-call round trip (ns)", f"{backend:13s} {cost:9.1f}")
    report.value("gates", backend, cost)


def test_gate_cost_ordering(report):
    costs = {backend: null_call_cost(backend) for backend in BACKENDS}
    assert costs["none"] < costs["cheri"] < costs["mpk-shared"]
    assert costs["mpk-shared"] < costs["mpk-switched"]
    assert costs["mpk-switched"] < costs["vm-rpc"]
    # VM RPC is microseconds-class vs tens of ns for MPK.
    assert costs["vm-rpc"] / costs["mpk-shared"] > 20
    report.row(
        "Gate null-call round trip (ns)",
        "ordering verified: direct < cheri < mpk-shared < mpk-switched "
        "<< vm-rpc",
    )
