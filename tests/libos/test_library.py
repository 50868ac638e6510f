"""Unit tests for micro-library exports, linker, and stubs."""

import pytest

from repro.gates import make_channel
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, Stub, export, export_blocking
from repro.machine.faults import GateError
from repro.machine.machine import Machine


class EchoLibrary(MicroLibrary):
    NAME = "echo"
    SPEC = "[Memory access] Read(Own); Write(Own)"

    @export
    def ping(self, value):
        return ("pong", value)

    @export_blocking
    def slow_ping(self, value):
        yield from ()
        return ("slow-pong", value)

    def helper(self):
        return "not exported"


class CallerLibrary(MicroLibrary):
    NAME = "caller"
    SPEC = "[Memory access] Read(Own); Write(Own)"


@pytest.fixture
def world():
    machine = Machine()
    space = machine.new_address_space("main")
    compartment = Compartment(0, "flat", machine)
    compartment.address_space = space
    linker = Linker()
    echo = EchoLibrary()
    caller = CallerLibrary()
    echo.install(machine, compartment, linker)
    caller.install(machine, compartment, linker)
    linker.connect("caller", "echo", make_channel("direct", machine, caller, echo))
    machine.boot_context(space)
    return machine, compartment, linker, echo, caller


def test_name_required():
    class Nameless(MicroLibrary):
        pass

    with pytest.raises(ValueError):
        Nameless()


class LoudEchoLibrary(EchoLibrary):
    """Inherits ``ping``, adds ``shout``, and overrides ``slow_ping``
    without the decorator, which unexports it."""

    NAME = "loud-echo"

    @export
    def shout(self, value):
        return ("PONG", value)

    def slow_ping(self, value):
        return ("not exported", value)


def test_exports_collected(world):
    _, _, _, echo, _ = world
    loud, other = LoudEchoLibrary(), EchoLibrary()
    assert list(loud.exports) == ["ping", "shout"]
    assert loud.blocking_exports == set()
    for library in (echo, other):
        assert list(library.exports) == ["ping", "slow_ping"]
        assert library.blocking_exports == {"slow_ping"}
    # Each instance's exports are bound to that instance.
    for library in (echo, loud, other):
        for handler in library.exports.values():
            assert handler.__self__ is library
    assert loud.exports["ping"](1) == ("pong", 1)
    assert loud.exports["shout"](2) == ("PONG", 2)


def test_non_exported_methods_hidden(world):
    _, _, _, echo, _ = world
    assert "helper" not in echo.exports


def test_install_registers_in_compartment(world):
    _, compartment, _, echo, caller = world
    assert echo in compartment.libraries
    assert compartment.library_names() == ["echo", "caller"]


def test_stub_call(world):
    _, _, _, _, caller = world
    stub = caller.stub("echo")
    assert isinstance(stub, Stub)
    assert stub.call("ping", 42) == ("pong", 42)


def test_stub_call_gen(world):
    _, _, _, _, caller = world
    result = yield_from_driver(caller.stub("echo").call_gen("slow_ping", 7))
    assert result == ("slow-pong", 7)


def yield_from_driver(gen):
    """Drive a generator that yields nothing and return its value."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("generator yielded unexpectedly")


def test_unresolved_link_raises(world):
    _, _, _, _, caller = world
    with pytest.raises(GateError):
        caller.stub("nonexistent")


def test_uninstalled_library_cannot_link():
    orphan = CallerLibrary()
    with pytest.raises(GateError):
        orphan.stub("echo")
    with pytest.raises(GateError):
        orphan.alloc_static(64)


def test_linker_edges(world):
    _, _, linker, _, _ = world
    assert ("caller", "echo") in set(linker.edges())


def test_alloc_static_maps_memory(world):
    machine, _, _, echo, _ = world
    addr = echo.alloc_static(100)
    machine.store(addr, b"static data")
    assert machine.load(addr, 11) == b"static data"


def test_charge_advances_clock(world):
    machine, _, _, echo, _ = world
    before = machine.cpu.clock_ns
    echo.charge(12.5)
    assert machine.cpu.clock_ns == before + 12.5


def test_plain_call_on_blocking_export_rejected(world):
    _, _, _, _, caller = world
    stub = caller.stub("echo")
    with pytest.raises(GateError):
        stub.call("slow_ping", 1)


def test_gen_call_on_plain_export_rejected(world):
    _, _, _, _, caller = world
    stub = caller.stub("echo")
    with pytest.raises(GateError):
        next(stub.call_gen("ping", 1))


def test_unknown_export_rejected(world):
    _, _, _, _, caller = world
    with pytest.raises(GateError):
        caller.stub("echo").call("no_such_fn")
