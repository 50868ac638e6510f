"""Differential property suite for the crossing-plan fast path.

The plan-compiled fast path (``REPRO_GATEPLAN=1``, the default) must be
*bit-identical* to the original per-call gate path in every simulated
quantity — clock, counters, edge records — because it issues the exact
same charge/counter-write sequence, merely precomputed.  These tests
drive randomized operation traces (sync invokes, faulting invokes,
blocking crossings that suspend or fail, batched queue submissions,
observability toggles mid-trace and mid-suspension) through both paths
and diff the full machine state, at channel level across the four
boundary backends and at image level (redis and the Fig. 3 iperf image)
across the six isolation profiles the benchmarks use (including
SH-hardened ones), with tracing both off and on.
"""

from __future__ import annotations

import random

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_named_workload
from repro.gates import GateOptions, make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.machine.capabilities import base_capabilities
from repro.machine.faults import CompartmentFailure, GateError, ProtectionFault
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys

BACKENDS = ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"]

#: The six isolation profiles of the acceptance matrix: four hardware
#: backends plus the two SH-hardened deployments.
PROFILES = [
    ("mpk-shared", {}),
    ("mpk-switched", {}),
    ("vm-rpc", {}),
    ("cheri", {}),
    ("mpk-shared", {"netstack": ("asan",)}),  # sh-asan
    ("mpk-shared", {"netstack": ("dfi",)}),  # sh-dfi
]


class SvcLibrary(MicroLibrary):
    NAME = "svc"
    SPEC = "[Memory access] Read(Own); Write(Own)"
    CAP_GRANTS = {"touch": ((0, -64),)}

    @export
    def echo(self, *args):
        return args

    @export
    def touch(self, addr):
        return addr

    @export
    def boom(self):
        raise ValueError("boom")

    @export
    def record_free(self, value):
        return value

    @export_blocking
    def sleepy(self):
        yield
        return "done"

    @export_blocking
    def early_fail(self):
        raise ValueError("early")
        yield  # pragma: no cover - makes this a generator

    @export_blocking
    def crash_later(self, addr):
        yield
        raise ProtectionFault(addr, "write", None, "wild write after resume")


class CallerLibrary(MicroLibrary):
    NAME = "caller"
    SPEC = "[Memory access] Read(Own); Write(Own)"


def make_world(backend: str, gateplan: bool):
    machine = Machine(gateplan=gateplan)
    linker = Linker()
    comp_a = Compartment(0, "svc-comp", machine)
    comp_b = Compartment(1, "caller-comp", machine)
    if backend == "vm-rpc":
        domain_a = machine.new_vm_domain("svc")
        comp_a.vm_domain = domain_a
        comp_a.address_space = domain_a.space
        domain_b = machine.new_vm_domain("caller")
        comp_b.vm_domain = domain_b
        comp_b.address_space = domain_b.space
    else:
        space = machine.new_address_space("main")
        comp_a.address_space = space
        comp_a.pkey = 1
        comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
        comp_b.address_space = space
        comp_b.pkey = 2
        comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    if backend == "cheri":
        comp_a.capabilities = base_capabilities(comp_a, [])
        comp_b.capabilities = base_capabilities(comp_b, [])
    service = SvcLibrary()
    caller = CallerLibrary()
    service.install(machine, comp_a, linker)
    caller.install(machine, comp_b, linker)
    return machine, service, caller


def enter_caller(machine, caller):
    # Push AFTER channels exist: queue-channel construction grants the
    # group-heap pkey to the compartment, and contexts snapshot PKRU.
    machine.cpu.push_context(caller.compartment.make_context("caller"))


def toggle_observer(machine, rng) -> None:
    """Flip the tracer or per-edge latency recording (an epoch bump)."""
    if rng.randrange(2):
        machine.obs.tracer.enabled = not machine.obs.tracer.enabled
    else:
        metrics = machine.cpu.metrics
        metrics.record_edge_latency = not metrics.record_edge_latency


def finish(gen):
    """Resume a suspended blocking crossing to completion; its result."""
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("blocking export suspended twice")


def finish_blocking(gen):
    """Drive a blocking crossing from its first ``next()`` to its end."""
    next(gen)
    return finish(gen)


def run_trace(backend: str, gateplan: bool, seed: int, toggle_obs: bool):
    """One seeded randomized trace; returns (results, machine state)."""
    machine, service, caller = make_world(backend, gateplan)
    sync = make_channel(backend, machine, caller, service)
    queued = make_channel(
        f"queue:{backend}",
        machine,
        caller,
        service,
        options=GateOptions(queue_batch=4, queue_depth=16),
    )
    enter_caller(machine, caller)
    rng = random.Random(seed)
    results = []
    for _ in range(60):
        op = rng.randrange(9)
        if op == 0:
            args = tuple(rng.randrange(100) for _ in range(rng.randrange(4)))
            results.append(sync.invoke("echo", args))
        elif op == 1:
            results.append(sync.invoke("touch", (rng.randrange(1 << 20),)))
        elif op == 2:
            try:
                sync.invoke("boom", ())
            except ValueError as exc:
                results.append(str(exc))
        elif op == 3:
            results.append(queued.submit("record_free", rng.randrange(50)))
        elif op == 4:
            results.append(queued.flush())
        elif op == 5:
            results.append(
                [(c.ticket, c.fn, c.value) for c in queued.poll()]
            )
        elif op == 6 and toggle_obs:
            # Mid-trace observability flips: the plan must re-specialize
            # on the epoch bump, and the observing path (the slow path)
            # must produce the same simulated numbers as always.
            toggle_observer(machine, rng)
        elif op == 7:
            # A blocking crossing that suspends once; an observer may
            # flip while it is parked inside the callee.
            gen = sync.invoke_gen("sleepy", ())
            results.append(next(gen))
            if toggle_obs and rng.randrange(2):
                toggle_observer(machine, rng)
            results.append(finish(gen))
        elif op == 8:
            try:
                next(sync.invoke_gen("early_fail", ()))
            except ValueError as exc:
                results.append(str(exc))
    machine.obs.tracer.enabled = False
    queued.flush()
    results.append([(c.ticket, c.fn, c.value) for c in queued.poll()])
    # A containable fault after a suspension, first raw (propagate),
    # then contained (isolate), each followed by a plain and a blocking
    # crossing into the callee — refused once it has failed.
    for policy in ("propagate", "isolate"):
        service.compartment.failure_policy = policy
        gen = sync.invoke_gen("crash_later", (rng.randrange(1 << 20),))
        next(gen)
        try:
            finish(gen)
        except (ProtectionFault, CompartmentFailure) as exc:
            results.append((policy, type(exc).__name__))
        for call in (
            lambda: sync.invoke("echo", (policy,)),
            lambda: finish_blocking(sync.invoke_gen("sleepy", ())),
        ):
            try:
                results.append(call())
            except CompartmentFailure as exc:
                results.append((policy, str(exc)))
        results.append(machine.cpu.context_depth)
    snap = machine.cpu.snapshot()
    counters = dict(machine.cpu.metrics.counters)
    return results, snap, counters, service.machine.cpu.clock_ns


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("toggle_obs", [False, True])
@pytest.mark.parametrize("seed", [1, 7])
def test_randomized_traces_bit_identical(backend, toggle_obs, seed):
    """Fast vs slow path: same results, same clock, same counters."""
    fast = run_trace(backend, True, seed, toggle_obs)
    slow = run_trace(backend, False, seed, toggle_obs)
    assert fast[0] == slow[0]  # returned values / errors / completions
    assert fast[1] == slow[1]  # cpu snapshot (clock + machine stats)
    assert fast[2] == slow[2]  # metrics counters
    assert fast[3] == slow[3]  # final clock


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_exports_identical_on_both_paths(backend):
    """A plain invoke of a blocking export fails identically."""
    errors = []
    for gateplan in (True, False):
        machine, service, caller = make_world(backend, gateplan)
        channel = make_channel(backend, machine, caller, service)
        enter_caller(machine, caller)
        with pytest.raises(GateError) as excinfo:
            channel.invoke("sleepy", ())
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


def test_plan_refreshes_on_observability_epoch_bump():
    machine, service, caller = make_world("mpk-shared", True)
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    channel.invoke("echo", (1,))
    plan = channel._plan
    assert plan is not None and plan.hits >= 1
    refreshes = plan.refreshes
    machine.obs.tracer.enabled = True
    channel.invoke("echo", (2,))
    assert plan.refreshes == refreshes + 1
    hits_while_tracing = plan.hits
    channel.invoke("echo", (3,))
    # Observing -> the slow path runs; the plan takes no hits.
    assert plan.hits == hits_while_tracing
    machine.obs.tracer.enabled = False
    channel.invoke("echo", (4,))
    assert plan.hits == hits_while_tracing + 1
    stats = machine.fastpath_stats()["gateplan"]
    assert stats["enabled"] and stats["plans"] >= 1
    assert stats["plan_hits"] >= plan.hits


def test_blocking_crossing_is_a_plan_hit():
    machine, service, caller = make_world("mpk-shared", True)
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    plan = channel._plan
    hits = plan.hits
    assert finish_blocking(channel.invoke_gen("sleepy", ())) == "done"
    assert plan.hits == hits + 1
    # Misuse still fails at the first next(), and takes no hit.
    for fn in ("echo", "missing"):
        gen = channel.invoke_gen(fn, ())
        with pytest.raises(GateError):
            next(gen)
    assert plan.hits == hits + 1


def test_gateplan_disabled_registers_no_plans():
    machine, service, caller = make_world("mpk-shared", False)
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    channel.invoke("echo", (1,))
    assert channel._plan is None
    stats = machine.fastpath_stats()["gateplan"]
    assert not stats["enabled"] and stats["plans"] == 0


def _redis_config(backend: str, hardening: dict) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "vfs", "redis"],
        compartments=[["netstack"], ["vfs"], ["sched", "alloc", "libc", "redis"]],
        backend=backend,
        hardening=dict(hardening),
    )


def _fig3_config(backend: str, hardening: dict) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend=backend,
        hardening=dict(hardening),
    )


#: (config builder, workload, parameters): redis crosses mostly with
#: plain invokes, iperf blocks in netstack ``recv`` once per buffer.
IMAGES = [
    (_redis_config, "redis", {"sets": 24, "gets": 60, "window": 4}),
    (_fig3_config, "iperf", {"buffer_size": 256, "total_bytes": 1 << 15}),
]


def _run_profile(backend, hardening, monkeypatch, gateplan: bool):
    monkeypatch.setenv("REPRO_GATEPLAN", "1" if gateplan else "0")
    runs = []
    for config, workload, params in IMAGES:
        image = build_image(config(backend, hardening))
        summary, numbers = run_named_workload(image, workload, params)
        cpu = image.machine.cpu
        runs.append((numbers, cpu.snapshot(), dict(cpu.metrics.counters)))
    return runs


@pytest.mark.parametrize("backend,hardening", PROFILES)
def test_image_level_simulation_identical(backend, hardening, monkeypatch):
    """End-to-end redis and iperf runs: six profiles, fast vs slow, identical."""
    fast = _run_profile(backend, hardening, monkeypatch, True)
    slow = _run_profile(backend, hardening, monkeypatch, False)
    for fast_run, slow_run in zip(fast, slow):
        assert fast_run[0] == slow_run[0]  # workload numbers
        assert fast_run[1] == slow_run[1]  # cpu snapshot
        assert fast_run[2] == slow_run[2]  # metrics counters
