"""FaultInjector hooks, containment policies, and VM-RPC recovery."""

import pytest

from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.machine.faults import (
    CONTAINABLE_FAULTS,
    CompartmentFailure,
    InjectedFault,
    MachineError,
    RPCTimeout,
)
from repro.resilience import InjectionPlan, arm

LIBS = ["libc", "netstack", "iperf"]
GROUPS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]


def _image(backend="mpk-shared", policy="propagate"):
    return build_image(
        BuildConfig(
            libraries=LIBS,
            compartments=GROUPS,
            backend=backend,
            failure_policy=policy,
        )
    )


def _run(image, total=1 << 15):
    from repro.apps.workload import run_iperf

    return run_iperf(image, 1024, total)


def _call_netstack(image, fn="net_stats"):
    """One crossing into netstack from iperf's compartment."""
    stub = image.lib("iperf").stub("netstack")
    cpu = image.machine.cpu
    cpu.push_context(image.compartment_of("iperf").make_context("test"))
    try:
        return stub.call(fn)
    finally:
        cpu.pop_context()


def test_injector_attaches_and_detaches():
    image = _image()
    injector = arm(image, InjectionPlan(seed=1))
    assert image.machine.injector is injector
    injector.detach()
    assert image.machine.injector is None


def test_gate_crash_fires_on_nth_matching_crossing():
    image = _image(policy="propagate")
    plan = InjectionPlan(seed=1).crash_crossing(callee="netstack", nth=3)
    injector = arm(image, plan)
    with pytest.raises(InjectedFault, match="gate-crash"):
        _run(image)
    assert injector.fired == 1
    assert injector.events[0].site == "gate-crash"
    assert injector.events[0].outcome == "raised"
    assert image.machine.cpu.metrics.counters["resilience.injected"] == 1


def test_propagate_policy_lets_raw_fault_escape():
    image = _image(policy="propagate")
    arm(image, InjectionPlan(seed=1).crash_crossing(callee="netstack", nth=2))
    with pytest.raises(InjectedFault):
        _run(image)
    assert not image.compartment_of("netstack").failed


def test_isolate_policy_translates_and_marks_failed():
    image = _image(policy="isolate")
    arm(image, InjectionPlan(seed=1).crash_crossing(callee="netstack", nth=2))
    with pytest.raises((MachineError, RuntimeError)):
        _run(image)
    netstack_comp = image.compartment_of("netstack")
    assert netstack_comp.failed
    assert netstack_comp.last_failure is not None
    assert isinstance(netstack_comp.last_failure, CompartmentFailure)
    assert isinstance(netstack_comp.last_failure.cause, InjectedFault)
    assert image.machine.cpu.metrics.counters["resilience.contained"] >= 1
    # isolate never revives: the compartment stays failed.
    assert netstack_comp.restarts == 0


def test_isolated_compartment_fails_fast_afterwards():
    image = _image(policy="isolate")
    arm(image, InjectionPlan(seed=1).crash_crossing(callee="netstack", nth=2))
    with pytest.raises((MachineError, RuntimeError)):
        _run(image)
    with pytest.raises(CompartmentFailure, match="unavailable"):
        _call_netstack(image)


def test_restart_policy_revives_after_backoff():
    image = _image(policy="restart-with-backoff")
    arm(image, InjectionPlan(seed=1).crash_crossing(callee="netstack", nth=2))
    with pytest.raises((MachineError, RuntimeError)):
        _run(image)
    netstack_comp = image.compartment_of("netstack")
    assert netstack_comp.failed
    # Wait out the backoff, then the next crossing revives it.
    cpu = image.machine.cpu
    if netstack_comp.restart_at_ns > cpu.clock_ns:
        cpu.charge(netstack_comp.restart_at_ns - cpu.clock_ns)
    _call_netstack(image)
    assert not netstack_comp.failed
    assert netstack_comp.restarts == 1
    assert image.machine.cpu.metrics.counters["resilience.restarts"] == 1


def test_restart_backoff_is_exponential():
    image = _image(policy="restart-with-backoff")
    comp = image.compartment_of("netstack")
    failure = CompartmentFailure(comp.name)
    comp.mark_failed(1000.0, failure)
    first = comp.restart_at_ns - 1000.0
    comp.restart()
    comp.mark_failed(2000.0, failure)
    second = comp.restart_at_ns - 2000.0
    assert second == pytest.approx(2 * first)


def test_sched_kill_reaps_thread():
    image = _image(policy="restart-with-backoff")
    injector = arm(image, InjectionPlan(seed=1).kill_thread(thread="iperf", nth=1))
    with pytest.raises((MachineError, RuntimeError)):
        _run(image)
    assert injector.fired == 1
    assert injector.events[0].outcome == "killed"
    assert not any(
        "iperf" in thread.name for thread in image.scheduler.threads.values()
    )


def test_alloc_exhaustion_heap_filter():
    image = _image(policy="propagate")
    plan = InjectionPlan(seed=1).exhaust_alloc(heap="heap:shared", nth=1)
    injector = arm(image, plan)
    with pytest.raises(InjectedFault, match="alloc-exhaustion"):
        _run(image)
    assert "heap:shared" in injector.events[0].detail


def test_wild_write_trapped_by_mpk_lands_on_none():
    def attack(backend):
        image = _image(backend=backend, policy="propagate")
        plan = InjectionPlan(seed=1).wild_write(
            victim="sched", callee="netstack", nth=2
        )
        injector = arm(image, plan)
        try:
            _run(image)
        except (MachineError, RuntimeError):
            pass
        return injector

    mpk = attack("mpk-shared")
    assert mpk.events[0].outcome == "trapped"
    assert mpk.probes_intact()
    flat = attack("none")
    assert flat.events[0].outcome == "landed"
    assert not flat.probes_intact()


def test_vm_drop_recovered_by_retry():
    image = _image(backend="vm-rpc", policy="propagate")
    arm(image, InjectionPlan(seed=1).drop_vm_notify(nth=3))
    result = _run(image)
    assert result.throughput_mbps > 0
    stats = image.machine.cpu.metrics.counters
    assert stats["vm_rpc_retries"] >= 1
    assert stats.get("vm_rpc_timeouts", 0) == 0


def test_vm_drop_burst_exhausts_retries():
    image = _image(backend="vm-rpc", policy="propagate")
    arm(image, InjectionPlan(seed=1).drop_vm_notify(nth=3, count=50))
    with pytest.raises(RPCTimeout):
        _run(image)
    assert image.machine.cpu.metrics.counters["vm_rpc_timeouts"] >= 1


def test_vm_duplicate_discarded():
    image = _image(backend="vm-rpc", policy="propagate")
    injector = arm(image, InjectionPlan(seed=1).duplicate_vm_notify(nth=3))
    result = _run(image)
    assert result.throughput_mbps > 0
    assert injector.events[0].outcome == "duplicated"
    assert image.machine.cpu.metrics.counters["vm_rpc_duplicates"] == 1


def test_retry_costs_simulated_time():
    """One dropped notification makes exactly that crossing dearer by
    the resend (one extra notify) plus the backoff wait."""
    from repro.resilience.injector import FaultInjector

    def crossing_cost(dropped):
        image = _image(backend="vm-rpc", policy="propagate")
        if dropped:
            injector = FaultInjector(InjectionPlan(seed=1).drop_vm_notify(nth=1))
            injector.machine = image.machine
            image.machine.injector = injector
        cpu = image.machine.cpu
        start = cpu.clock_ns
        _call_netstack(image)
        return cpu.clock_ns - start

    from repro.machine.cycles import CostModel

    plain = crossing_cost(False)
    retried = crossing_cost(True)
    cost = CostModel()
    extra_notify = cost.vm_notify_ns + 8 * cost.vm_copy_byte_ns
    assert retried == pytest.approx(plain + extra_notify + cost.vm_rpc_timeout_ns)


def test_injection_is_deterministic():
    def trail():
        image = _image(policy="restart-with-backoff")
        injector = arm(
            image, InjectionPlan(seed=9).crash_crossing(callee="netstack", nth=4)
        )
        try:
            _run(image)
        except (MachineError, RuntimeError):
            pass
        return [
            (event.site, event.at_ns, event.detail, event.outcome)
            for event in injector.events
        ], image.clock_ns

    assert trail() == trail()


def test_containable_taxonomy_excludes_translated_faults():
    from repro.machine.faults import BoundaryViolation, GateError

    assert InjectedFault in CONTAINABLE_FAULTS
    assert CompartmentFailure not in CONTAINABLE_FAULTS
    assert RPCTimeout not in CONTAINABLE_FAULTS
    assert GateError not in CONTAINABLE_FAULTS
    assert BoundaryViolation not in CONTAINABLE_FAULTS


def test_core_errors_reexports_fault_taxonomy():
    from repro.core import errors

    for name in (
        "CompartmentFailure",
        "InjectedFault",
        "RPCTimeout",
        "ProtectionFault",
        "GateError",
        "CONTAINABLE_FAULTS",
    ):
        assert hasattr(errors, name)
        assert name in errors.__all__
