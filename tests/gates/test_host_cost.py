"""Host-cost guards for the hottest simulator paths.

- *Frame budget.*  A gate crossing is compiled into one function per
  export, a checked load or store charges the clock inline, and a
  library charge is the CPU's own ``charge``, so each costs a fixed,
  small number of Python frames — alone or one after another.  The
  budgets below count ``sys.setprofile`` "call" events (generator
  resumptions included) and hold on CPython 3.10–3.12; an interpreted
  step sneaking back into any of these paths shows up here as a budget
  overrun.
- *Link time.*  A gate makes an export's plan entry on the export's
  first lookup, so building a channel costs the same frames whatever
  the callee exports, and after a run the gates hold an entry only per
  export actually crossed.
- *Ledger coverage.*  perfbench's traced ledger attributes gate time by
  wrapping ``Gate.invoke`` and ``Gate.invoke_gen`` on the class, so
  every crossing must enter through one of them.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro import build_image
from repro.apps import run_iperf
from repro.gates import make_channel
from repro.gates.base import Gate
from repro.libos.library import MicroLibrary, Stub, export
from tests.golden.worlds import enter_caller, fig3_config, make_world

#: Channel kind -> (plain crossing, blocking crossing) frame budget,
#: counted from the Stub call: the stub, the gate entry point, the
#: compiled crossing and the handler (both resumed once when blocking),
#: plus whatever the backend's domain switch still calls.
BUDGETS = {
    "direct": (4, 6),
    "profile": (4, 6),
    "mpk-shared": (4, 6),
    "mpk-switched": (5, 7),
    "cheri": (6, 8),
    "vm-rpc": (10, 12),
}


def _frames(thunk) -> int:
    """Python frames entered while ``thunk`` runs (itself excluded).

    The cyclic collector is held off meanwhile: finalizers it runs
    (generators left over from earlier tests) are Python frames too.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is not thunk.__code__:
            calls += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def _world(kind: str):
    """The svc/caller world whose compartments a ``kind`` channel needs."""
    return make_world(
        kind if kind in ("mpk-switched", "cheri", "vm-rpc") else "mpk-shared"
    )


def _stub_world(kind: str):
    """A machine, a stub over a ``kind`` channel, and the entered caller."""
    machine, service, caller = _world(kind)
    stub = Stub(make_channel(kind, machine, caller, service))
    enter_caller(machine, caller)
    return machine, stub, caller


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_crossing_frame_budget(kind):
    machine, stub, caller = _stub_world(kind)

    def plain():
        stub.call("echo", 1)

    def blocking():
        for _ in stub.call_gen("sleepy"):
            pass

    plain()  # compiles the crossings and fills the context pool
    blocking()
    plain_budget, blocking_budget = BUDGETS[kind]
    assert _frames(plain) <= plain_budget
    assert _frames(blocking) <= blocking_budget


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_crossing_after_a_load_frame_budget(kind):
    """A load leaves no work behind for the next charge: a crossing
    right after one costs what the two cost alone (a load is one frame
    outside capability contexts)."""
    machine, stub, caller = _stub_world(kind)
    addr = caller.compartment.alloc_region(4096)

    def load():
        machine.load(addr, 8)

    def load_then_cross():
        machine.load(addr, 8)
        stub.call("echo", 1)

    load_then_cross()
    assert _frames(load_then_cross) <= BUDGETS[kind][0] + _frames(load)


def _library_exporting(count: int) -> MicroLibrary:
    """A fresh library with ``count`` plain exports."""
    exports = {f"op{index}": export(lambda self: None) for index in range(count)}
    cls = type(f"Wide{count}", (MicroLibrary,), {"NAME": f"wide{count}", **exports})
    return cls()


@pytest.mark.parametrize("kind", sorted(BUDGETS))
def test_gate_construction_frame_budget(kind):
    """Building a channel costs the same frames for a callee with 2
    exports as for one with 40: no export is planned before its first
    lookup."""
    machine, service, caller = _world(kind)
    make_channel(kind, machine, caller, service)  # first-use work, if any
    frames = []
    for count in (2, 40):
        callee = _library_exporting(count)
        callee.install(machine, service.compartment, service.linker)
        frames.append(_frames(lambda: make_channel(kind, machine, caller, callee)))
    assert frames[0] == frames[1]


def test_plan_entries_only_for_crossed_exports():
    """After the Fig. 3 iperf run, the gates hold one plan entry per
    compiled crossing and no other."""
    image = build_image(fig3_config("mpk-shared", {}))
    run_iperf(image, 256, 1 << 15)
    gates = image.machine.gates
    entries = sum(len(gate._plan) for gate in gates)
    compiled = sum(len(gate._calls) + len(gate._gen_calls) for gate in gates)
    assert entries == compiled == 11


def _accesses(world: str, size: int = 8):
    """The machine, an address and ``size``-byte load/store/copy thunks
    of an entered caller, each run once so the software TLB holds its
    translations.  The accesses lie in one freshly mapped region, which
    is one extent."""
    machine, _, caller = make_world(world)
    enter_caller(machine, caller)
    addr = caller.compartment.alloc_region(max(4096, size + 64))
    payload = b"01234567" * (size // 8)

    def load():
        machine.load(addr, size)

    def store():
        machine.store(addr, payload)

    def copy():
        machine.copy(addr + 64, addr, size)

    for access in (load, store, copy):
        access()
    return machine, addr, load, store, copy


def test_memory_access_frame_budget():
    machine, addr, load, store, copy = _accesses("mpk-shared")
    assert _frames(load) <= 1
    assert _frames(store) <= 1
    assert _frames(copy) <= 3  # copy, load, store

    def load_then_charge():
        machine.load(addr, 8)
        machine.cpu.charge(1.0)

    assert _frames(load_then_charge) <= 2  # load, charge

    # An access that spans pages inside one cached extent is one probe
    # and one slice too.
    _, _, load, store, copy = _accesses("mpk-shared", 3 * 4096 + 16)
    assert _frames(load) <= 1
    assert _frames(store) <= 1
    assert _frames(copy) <= 3

    # A capability context adds its per-access bounds check (the
    # charge, the check, its range scan), then takes the same TLB path.
    _, _, load, store, _ = _accesses("cheri")
    assert _frames(load) <= 4
    assert _frames(store) <= 4


def test_library_charge_frame_budget():
    machine, _, caller = make_world("mpk-shared")

    def charge():
        caller.charge(1.0)

    assert _frames(charge) <= 1  # CPU.charge itself


def test_every_crossing_enters_through_the_wrapped_entry_points(monkeypatch):
    """Wrap the entry points on the class before the image exists, as
    the traced ledger does; the wrappers see every crossing."""
    entered = 0
    invoke, invoke_gen = Gate.invoke, Gate.invoke_gen

    def counted(original):
        def wrapper(*args, **kwargs):
            nonlocal entered
            entered += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Gate, "invoke", counted(invoke))
    monkeypatch.setattr(Gate, "invoke_gen", counted(invoke_gen))
    image = build_image(fig3_config("mpk-shared", {}))
    run_iperf(image, 256, 1 << 15)
    crossings = sum(gate.crossings for gate in image.machine.gates)
    assert crossings > 300
    assert entered == crossings
