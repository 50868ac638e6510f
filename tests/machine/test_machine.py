"""Unit tests for the Machine facade: checked access, faults, DMA."""

import pytest

from repro.machine import (
    Machine,
    PageFault,
    Permissions,
    ProtectionFault,
    SHViolation,
    pkru_for_keys,
)
from repro.machine.cpu import Context, DomainProfile
from repro.machine.memory import PAGE_SIZE


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def booted(machine):
    space = machine.new_address_space("main")
    machine.boot_context(space)
    return machine, space


def test_duplicate_space_rejected(machine):
    machine.new_address_space("a")
    with pytest.raises(ValueError):
        machine.new_address_space("a")


def test_load_store_roundtrip(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE)
    machine.store(vaddr, b"flexos")
    assert machine.load(vaddr, 6) == b"flexos"


def test_store_across_page_boundary(booted):
    machine, space = booted
    vaddr = space.map_new(2 * PAGE_SIZE)
    payload = bytes(range(20))
    machine.store(vaddr + PAGE_SIZE - 10, payload)
    assert machine.load(vaddr + PAGE_SIZE - 10, 20) == payload


def test_copy_and_fill(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE)
    machine.fill(vaddr, 0xAB, 8)
    machine.copy(vaddr + 100, vaddr, 8)
    assert machine.load(vaddr + 100, 8) == b"\xab" * 8


def test_unmapped_access_page_faults(booted):
    machine, _ = booted
    with pytest.raises(PageFault):
        machine.load(0x7777_0000, 1)
    with pytest.raises(PageFault):
        machine.store(0x7777_0000, b"x")


def test_readonly_page_write_faults(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE, perms=Permissions.READ)
    assert machine.load(vaddr, 1) == b"\x00"
    with pytest.raises(PageFault):
        machine.store(vaddr, b"x")


def test_pkey_read_denied(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE, pkey=4)
    machine.cpu.current.pkru = pkru_for_keys(writable=[0])
    with pytest.raises(ProtectionFault) as info:
        machine.load(vaddr, 1)
    assert info.value.pkey == 4


def test_pkey_write_denied_read_allowed(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE, pkey=4)
    machine.store(vaddr, b"seed")  # all-access boot context
    machine.cpu.current.pkru = pkru_for_keys(writable=[0], readable=[4])
    assert machine.load(vaddr, 4) == b"seed"
    with pytest.raises(ProtectionFault):
        machine.store(vaddr, b"x")


def test_pkey_check_applies_to_each_page(booted):
    # A range spanning two pages with different keys: access faults on
    # the page whose key the PKRU denies, even mid-range.
    machine, space = booted
    vaddr = space.map_new(2 * PAGE_SIZE)
    space.protect(vaddr + PAGE_SIZE, PAGE_SIZE, pkey=9)
    machine.cpu.current.pkru = pkru_for_keys(writable=[0])
    with pytest.raises(ProtectionFault):
        machine.load(vaddr + PAGE_SIZE - 4, 8)


def test_access_charges_clock_and_counters(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE)
    start = machine.cpu.clock_ns
    machine.store(vaddr, b"x" * 100)
    assert machine.cpu.clock_ns > start
    assert machine.cpu.metrics.counters["stores"] == 1
    assert machine.cpu.metrics.counters["store_bytes"] == 100


def test_counters_are_present_exactly_when_their_event_happened(booted):
    """Derived counters appear as a bumped table's would: a zero-length
    load makes ``load_bytes`` present at 0, and one sealed WRPKRU makes
    ``wrpkru`` present with no gate behind it."""
    machine, space = booted
    cpu = machine.cpu
    vaddr = space.map_new(PAGE_SIZE)
    assert cpu.metrics.counters == {}
    assert machine.load(vaddr, 0) == b""
    assert cpu.metrics.counters == {"loads": 1.0, "load_bytes": 0.0}
    cpu.wrpkru(cpu.current.pkru, token=cpu.gate_token())
    assert cpu.snapshot() == {
        "loads": 1.0,
        "load_bytes": 0.0,
        "wrpkru": 1.0,
        "clock_ns": cpu.clock_ns,
    }
    assert all(type(value) is float for value in cpu.snapshot().values())


def test_access_without_context_raises_before_charging(machine):
    space = machine.new_address_space("main")
    vaddr = space.map_new(PAGE_SIZE)
    for access in (
        lambda: machine.load(vaddr, 8),
        lambda: machine.store(vaddr, b"x" * 8),
    ):
        with pytest.raises(RuntimeError, match="no execution context active"):
            access()
    assert machine.cpu.snapshot() == {"clock_ns": 0.0}


def test_profile_factor_scales_cost(machine):
    space = machine.new_address_space("main")
    vaddr = space.map_new(PAGE_SIZE)
    plain = Context(space, label="plain")
    machine.cpu.push_context(plain)
    machine.store(vaddr, b"x" * 64)
    plain_cost = machine.cpu.clock_ns
    machine.cpu.pop_context()

    hardened = Context(
        space, profile=DomainProfile(store_factor=3.0), label="hardened"
    )
    machine.cpu.push_context(hardened)
    base = machine.cpu.clock_ns
    machine.store(vaddr, b"x" * 64)
    hardened_cost = machine.cpu.clock_ns - base
    assert hardened_cost == pytest.approx(3.0 * plain_cost)


def test_monitor_runs_and_can_veto(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE)
    seen = []

    def monitor(mach, kind, addr, size):
        seen.append((kind, addr, size))
        if kind == "store" and size > 4:
            raise SHViolation("test-monitor", "store too large")

    machine.cpu.current.profile = DomainProfile(monitors=[monitor])
    machine.load(vaddr, 2)
    machine.store(vaddr, b"ab")
    with pytest.raises(SHViolation):
        machine.store(vaddr, b"abcdef")
    assert ("load", vaddr, 2) in seen


def test_dma_bypasses_pkey_and_cost(booted):
    machine, space = booted
    vaddr = space.map_new(PAGE_SIZE, pkey=5)
    machine.cpu.current.pkru = pkru_for_keys(writable=[0])
    start = machine.cpu.clock_ns
    machine.dma_write(space, vaddr, b"packet")
    assert machine.dma_read(space, vaddr, 6) == b"packet"
    assert machine.cpu.clock_ns == start


def test_vm_domains_are_isolated(machine):
    vm_a = machine.new_vm_domain("a")
    vm_b = machine.new_vm_domain("b")
    vaddr = vm_a.space.map_new(PAGE_SIZE)
    machine.boot_context(vm_a.space, label="vm a")
    machine.store(vaddr, b"private")
    machine.cpu.pop_context()
    machine.boot_context(vm_b.space, label="vm b")
    # The same virtual address is simply unmapped in VM b.
    with pytest.raises(PageFault):
        machine.load(vaddr, 7)


def test_shared_window_same_va_all_vms(machine):
    vm_a = machine.new_vm_domain("a")
    vm_b = machine.new_vm_domain("b")
    shared = machine.map_shared_window([vm_a, vm_b], PAGE_SIZE)
    machine.boot_context(vm_a.space, label="vm a")
    machine.store(shared, b"rpc-args")
    machine.cpu.pop_context()
    machine.boot_context(vm_b.space, label="vm b")
    assert machine.load(shared, 8) == b"rpc-args"
    assert (shared, PAGE_SIZE) in vm_a.shared_windows


def test_duplicate_vm_domain_rejected(machine):
    machine.new_vm_domain("a")
    with pytest.raises(ValueError):
        machine.new_vm_domain("a")
