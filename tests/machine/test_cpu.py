"""Unit tests for the CPU context stack, clock, and counters."""

import pytest

from repro.machine.address_space import AddressSpace
from repro.machine.cpu import CPU, Context, DomainProfile
from repro.machine.cycles import CostModel
from repro.machine.memory import PAGE_SIZE, PhysicalMemory


@pytest.fixture
def space():
    return AddressSpace("cpu-test", PhysicalMemory(4 * PAGE_SIZE))


def test_no_context_raises():
    cpu = CPU()
    with pytest.raises(RuntimeError):
        _ = cpu.current
    assert not cpu.has_context


def test_context_stack_discipline(space):
    cpu = CPU()
    outer = Context(space, label="outer")
    inner = Context(space, label="inner")
    cpu.push_context(outer)
    cpu.push_context(inner)
    assert cpu.current is inner
    assert cpu.context_depth == 2
    assert cpu.pop_context() is inner
    assert cpu.current is outer
    cpu.pop_context()
    with pytest.raises(RuntimeError):
        cpu.pop_context()


def test_charge_advances_clock():
    cpu = CPU()
    cpu.charge(10.5)
    cpu.charge(4.5)
    assert cpu.clock_ns == 15.0


def test_counters_and_snapshot():
    cpu = CPU()
    cpu.bump("loads")
    cpu.bump("loads")
    cpu.bump("bytes", 64)
    snap = cpu.snapshot()
    assert snap["loads"] == 2
    assert snap["bytes"] == 64
    assert "clock_ns" in snap
    cpu.metrics.reset()
    assert cpu.metrics.counters == {}


def test_custom_cost_model():
    model = CostModel(mem_op_ns=99.0)
    cpu = CPU(model)
    assert cpu.cost.mem_op_ns == 99.0


def test_cost_model_scaled_and_replace():
    model = CostModel(mem_op_ns=2.0, call_ns=4.0)
    faster = model.scaled(0.5)
    assert faster.mem_op_ns == 1.0
    assert faster.call_ns == 2.0
    tweaked = model.replace(call_ns=10.0)
    assert tweaked.call_ns == 10.0
    assert tweaked.mem_op_ns == 2.0


def test_default_profile_is_neutral(space):
    context = Context(space)
    assert context.profile.load_factor == 1.0
    assert context.profile.store_factor == 1.0
    assert context.profile.monitors == []


def test_profile_fields():
    profile = DomainProfile(name="hardened", load_factor=2.0, store_factor=3.0)
    assert profile.name == "hardened"
    assert profile.load_factor == 2.0
