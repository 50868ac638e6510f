"""Unit tests for the gate implementations and registry."""

import pytest

from repro.gates import (
    GATE_KINDS,
    GateOptions,
    make_channel,
)
from repro.gates.mpk_shared import MPKSharedStackGate
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.machine.faults import GateError
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys


class ServiceLibrary(MicroLibrary):
    NAME = "service"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    @export
    def double(self, value):
        return 2 * value

    @export
    def whoami(self):
        return self.machine.cpu.current.label

    @export
    def fail(self):
        raise RuntimeError("service exploded")

    @export_blocking
    def double_slow(self, value):
        yield from ()
        return 2 * value


class ClientLibrary(MicroLibrary):
    NAME = "client"
    SPEC = "[Memory access] Read(Own); Write(Own)"


def make_world(backend="mpk"):
    machine = Machine()
    linker = Linker()
    if backend == "vm":
        comp_a = Compartment(0, "service-comp", machine)
        domain_a = machine.new_vm_domain("a")
        comp_a.vm_domain = domain_a
        comp_a.address_space = domain_a.space
        comp_b = Compartment(1, "client-comp", machine)
        domain_b = machine.new_vm_domain("b")
        comp_b.vm_domain = domain_b
        comp_b.address_space = domain_b.space
    else:
        space = machine.new_address_space("main")
        comp_a = Compartment(0, "service-comp", machine)
        comp_a.address_space = space
        comp_a.pkey = 1
        comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
        comp_b = Compartment(1, "client-comp", machine)
        comp_b.address_space = space
        comp_b.pkey = 2
        comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    service = ServiceLibrary()
    client = ClientLibrary()
    service.install(machine, comp_a, linker)
    client.install(machine, comp_b, linker)
    machine.cpu.push_context(comp_b.make_context("client"))
    return machine, service, client


def drive(gen):
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("unexpected suspension")


@pytest.mark.parametrize(
    "kind", ["direct", "profile", "mpk-shared", "mpk-switched"]
)
def test_gate_invokes_and_returns(kind):
    machine, service, client = make_world()
    gate = make_channel(kind, machine, client, service)
    assert gate.invoke("double", (21,)) == 42
    assert gate.crossings == 1


def test_vm_gate_invokes():
    machine, service, client = make_world("vm")
    gate = make_channel("vm-rpc", machine, client, service)
    assert gate.invoke("double", (5,)) == 10


def test_vm_gate_requires_vm_domain():
    machine, service, client = make_world("mpk")
    with pytest.raises(GateError):
        make_channel("vm-rpc", machine, client, service)


@pytest.mark.parametrize("kind", ["mpk-shared", "mpk-switched", "profile"])
def test_gate_switches_context_and_restores(kind):
    machine, service, client = make_world()
    gate = make_channel(kind, machine, client, service)
    before = machine.cpu.current
    label = gate.invoke("whoami", ())
    assert "service" in label
    assert machine.cpu.current is before
    assert machine.cpu.context_depth == 1


def test_direct_channel_keeps_caller_context():
    machine, service, client = make_world()
    gate = make_channel("direct", machine, client, service)
    assert gate.invoke("whoami", ()) == "client"


def test_gate_restores_context_on_exception():
    machine, service, client = make_world()
    gate = make_channel("mpk-shared", machine, client, service)
    with pytest.raises(RuntimeError, match="service exploded"):
        gate.invoke("fail", ())
    assert machine.cpu.context_depth == 1
    assert machine.cpu.current.label == "client"


def test_blocking_invoke_gen():
    machine, service, client = make_world()
    gate = make_channel("mpk-switched", machine, client, service)
    assert drive(gate.invoke_gen("double_slow", (8,))) == 16
    assert machine.cpu.context_depth == 1


def test_entry_point_enforcement():
    """Every misuse raises its GateError before any charge, on a fresh
    gate (no plan entry yet) and again once the exports are compiled."""
    machine, service, client = make_world()
    gate = make_channel("mpk-shared", machine, client, service)
    unknown = "service has no export '_private' (called from client)"
    blocking = "service.double_slow is blocking; use call_gen / yield from"
    misuses = [
        (lambda: gate.invoke("_private", ()), unknown),
        (lambda: next(gate.invoke_gen("_private", ())), unknown),
        (lambda: gate.admit("_private"), unknown),
        (lambda: gate.invoke("double_slow", (1,)), blocking),
        (lambda: gate.admit("double_slow"), blocking),
        (
            lambda: next(gate.invoke_gen("double", (1,))),
            "service.double is not a blocking export",
        ),
    ]
    for compiled in (False, True):
        if compiled:
            assert gate.invoke("double", (1,)) == 2
            assert drive(gate.invoke_gen("double_slow", (1,))) == 2
        for misuse, message in misuses:
            clock, crossings = machine.cpu.clock_ns, gate.crossings
            with pytest.raises(GateError) as raised:
                misuse()
            assert str(raised.value) == message
            assert (machine.cpu.clock_ns, gate.crossings) == (clock, crossings)


def test_gate_costs_ordering():
    costs = {}
    for kind in ("direct", "mpk-shared", "mpk-switched"):
        machine, service, client = make_world()
        gate = make_channel(kind, machine, client, service)
        start = machine.cpu.clock_ns
        gate.invoke("double", (1,))
        costs[kind] = machine.cpu.clock_ns - start
    assert costs["direct"] < costs["mpk-shared"] < costs["mpk-switched"]


def test_vm_gate_is_most_expensive():
    machine, service, client = make_world("vm")
    gate = make_channel("vm-rpc", machine, client, service)
    start = machine.cpu.clock_ns
    gate.invoke("double", (1,))
    vm_cost = machine.cpu.clock_ns - start
    assert vm_cost > 2 * machine.cost.vm_notify_ns


def test_register_clearing_option_costs():
    costs = {}
    for clear in (True, False):
        machine, service, client = make_world()
        gate = make_channel(
            "mpk-shared",
            machine,
            client,
            service,
            options=GateOptions(clear_registers=clear),
        )
        start = machine.cpu.clock_ns
        gate.invoke("double", (1,))
        costs[clear] = machine.cpu.clock_ns - start
    assert costs[True] == pytest.approx(
        costs[False] + 2 * machine.cost.reg_clear_ns
    )


def test_switched_gate_charges_arg_copies():
    machine, service, client = make_world()
    shared = make_channel("mpk-shared", machine, client, service)
    switched = make_channel("mpk-switched", machine, client, service)
    start = machine.cpu.clock_ns
    shared.invoke("double", (1,))
    shared_cost = machine.cpu.clock_ns - start
    start = machine.cpu.clock_ns
    switched.invoke("double", (1,))
    switched_cost = machine.cpu.clock_ns - start
    assert switched_cost > shared_cost + 2 * machine.cost.stack_switch_ns - 1


def test_caller_profile_instrumentation_runs():
    machine, service, client = make_world()
    calls = []
    machine.cpu.current.profile.call_monitors.append(
        lambda caller, callee, fn: calls.append((caller, callee, fn))
    )
    machine.cpu.current.profile.call_extra_ns = 5.0
    gate = make_channel("direct", machine, client, service)
    gate.invoke("double", (3,))
    assert calls == [("client", "service", "double")]


def test_registry_resolves_all_kinds():
    machine, service, client = make_world()
    for kind in ("direct", "profile", "mpk-shared", "mpk-switched"):
        gate = make_channel(kind, machine, client, service)
        assert gate.KIND == kind
    assert set(GATE_KINDS) == {
        "direct",
        "profile",
        "cheri",
        "mpk-shared",
        "mpk-switched",
        "vm-rpc",
    }
    with pytest.raises(GateError):
        make_channel("teleport", machine, client, service)


def test_make_channel_wraps_boundary_with_guards():
    machine, service, client = make_world()
    options = GateOptions(api_guards=True)
    guarded = make_channel(
        "mpk-shared", machine, client, service, options=options
    )
    assert type(guarded).__name__ == "GuardedChannel"
    assert guarded.inner.KIND == "mpk-shared"
    # Same-compartment direct channels never get guard wrappers.
    direct = make_channel("direct", machine, client, service, options=options)
    assert type(direct).__name__ == "DirectChannel"


def test_direct_instantiation_raises():
    machine, service, client = make_world()
    with pytest.raises(GateError, match="make_channel"):
        MPKSharedStackGate(machine, client, service)
    assert not hasattr(
        __import__("repro.gates", fromlist=["gates"]), "make_gate"
    )


def test_make_channel_emits_no_deprecation_warning(recwarn):
    machine, service, client = make_world()
    make_channel("mpk-shared", machine, client, service)
    assert not [
        w for w in recwarn if issubclass(w.category, DeprecationWarning)
    ]
