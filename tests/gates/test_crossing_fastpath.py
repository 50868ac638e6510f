"""Property suite for compiled gate crossings.

Every crossing — plain, batched, blocking — runs one body, compiled per
export by its gate; observers (the tracer, per-edge latency recording)
only hook that body, sampled once at entry.  Randomized operation
traces (sync invokes, faulting invokes, blocking crossings that suspend
or fail, batched queue submissions) run once unobserved and once with
observers flipping mid-trace and mid-park; the observer flips draw from
their own RNG, so both runs execute the same operations and must end in
the same simulated state: observing never changes a simulated result.
The exact values are pinned by the golden corpus (``tests/golden``).
"""

from __future__ import annotations

import pytest

from repro.gates import make_channel
from repro.machine.faults import GateError, RPCTimeout
from tests.golden.worlds import (
    BACKENDS,
    enter_caller,
    finish,
    finish_blocking,
    make_world,
    run_trace,
)


def _observables(results, machine):
    cpu = machine.cpu
    return (
        results,
        cpu.snapshot(),
        dict(cpu.metrics.counters),
        cpu.metrics.edge_counts(),
        cpu.clock_ns,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("toggle_obs", [False, True])
@pytest.mark.parametrize("seed", [1, 7])
def test_randomized_traces_bit_identical(backend, toggle_obs, seed):
    """Same results, snapshot, counters, edges and clock as unobserved."""
    unobserved = _observables(*run_trace(backend, seed, observe=False))
    run = _observables(*run_trace(backend, seed, observe=toggle_obs))
    assert run == unobserved


@pytest.mark.parametrize("backend", BACKENDS)
def test_blocking_exports_identical_on_both_paths(backend):
    """A plain invoke of a blocking export fails identically, observed or
    not, before any charge."""
    errors = []
    for observed in (False, True):
        machine, service, caller = make_world(backend)
        channel = make_channel(backend, machine, caller, service)
        enter_caller(machine, caller)
        machine.obs.tracer.enabled = observed
        before = machine.cpu.snapshot()
        with pytest.raises(GateError) as excinfo:
            channel.invoke("sleepy", ())
        assert machine.cpu.snapshot() == before
        assert machine.obs.tracer.events == []
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


def test_compiled_crossings_belong_to_the_gates_package():
    """Every compiled crossing — plain, blocking, batch, on every
    backend — carries its gate's module, so a sampling profiler charges
    crossing time to the gates and not to the caller.  None reaches a
    counter table: a crossing counts itself in its gate's ints."""
    crossings = []
    for backend in BACKENDS:
        _, machine = run_trace(backend, 1, observe=False)
        for gate in machine.gates:
            crossings += [*gate._calls.values(), *gate._gen_calls.values()]
            if gate._batch_call is not None:
                crossings.append(gate._batch_call)
    machine, service, caller = make_world("mpk-shared")
    for kind in ("direct", "profile"):
        channel = make_channel(kind, machine, caller, service)
        enter_caller(machine, caller)
        channel.invoke("echo", ())
        crossings.append(channel._calls["echo"])
    for fn in crossings:
        code = fn.__code__
        assert not {"counters", "table", "metrics"} & {
            *code.co_freevars, *code.co_names
        }
    assert {fn.__module__ for fn in crossings} == {
        "repro.gates.funccall",
        "repro.gates.mpk_shared",
        "repro.gates.mpk_switched",
        "repro.gates.vm_rpc",
        "repro.gates.cheri",
    }


def test_plan_refreshes_on_observability_epoch_bump():
    machine, service, caller = make_world("mpk-shared")
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)
    channel.invoke("echo", (1,))
    refreshes = channel.plan_refreshes
    assert refreshes == 1  # the first crossing resolves the observers
    channel.invoke("echo", (2,))
    assert channel.plan_refreshes == refreshes
    tracer = machine.obs.tracer
    tracer.enabled = True
    channel.invoke("echo", (3,))
    assert channel.plan_refreshes == refreshes + 1
    assert [event["ph"] for event in tracer.events if event["cat"] == "gate"] == [
        "B",
        "E",
    ]
    tracer.enabled = False
    channel.invoke("echo", (4,))
    assert channel.plan_refreshes == refreshes + 2
    stats = machine.fastpath_stats()["gateplan"]
    assert stats["plans"] == len(machine.gates) >= 1
    assert stats["plan_hits"] == channel.crossings == 4
    assert stats["plan_refreshes"] >= channel.plan_refreshes


def test_blocking_crossing_is_a_plan_hit():
    """Blocking crossings count; misuse of any kind charges and counts
    nothing, and a misused ``invoke_gen`` fails at its first ``next()``."""
    machine, service, caller = make_world("mpk-shared")
    channel = make_channel("mpk-shared", machine, caller, service)
    enter_caller(machine, caller)

    def plan_hits():
        return machine.fastpath_stats()["gateplan"]["plan_hits"]

    hits = plan_hits()
    assert finish_blocking(channel.invoke_gen("sleepy", ())) == "done"
    assert plan_hits() == hits + 1
    before = machine.cpu.snapshot()
    for fn in ("echo", "missing"):
        gen = channel.invoke_gen(fn, ())
        with pytest.raises(GateError):
            next(gen)
    for misuse in (
        lambda: channel.invoke("sleepy", ()),
        lambda: channel.invoke("missing", ()),
        lambda: channel.invoke_batch([(1, "echo", ()), (2, "sleepy", ())]),
    ):
        with pytest.raises(GateError):
            misuse()
    assert plan_hits() == hits + 1
    assert machine.cpu.snapshot() == before


class _LoseAfterCall:
    """Injector that delivers the first VM notification, drops the rest."""

    def __init__(self) -> None:
        self.notifications = 0

    def on_crossing(self, gate, fn) -> None:
        pass

    def on_vm_notify(self, domain) -> str:
        self.notifications += 1
        return "delivered" if self.notifications == 1 else "dropped"


def _gate_phases(tracer) -> list[tuple[str, str]]:
    return [(e["ph"], e["name"]) for e in tracer.events if e["cat"] == "gate"]


@pytest.mark.parametrize("blocking", [False, True])
def test_failed_exit_closes_its_span(blocking):
    """A lost return notification fails the exit; the span still closes,
    so the next crossing's span is a sibling, not a child."""
    machine, service, caller = make_world("vm-rpc")
    channel = make_channel("vm-rpc", machine, caller, service)
    enter_caller(machine, caller)
    tracer = machine.obs.tracer
    tracer.enabled = True
    machine.injector = _LoseAfterCall()
    with pytest.raises(RPCTimeout):
        if blocking:
            gen = channel.invoke_gen("sleepy", ())
            next(gen)
            finish(gen)
        else:
            channel.invoke("echo", (1,))
    machine.injector = None
    assert machine.cpu.context_depth == 1
    assert tracer.open_spans() == []
    channel.invoke("echo", (2,))
    name = "caller->svc." + ("sleepy" if blocking else "echo")
    assert _gate_phases(tracer) == [
        ("B", name),
        ("E", name),
        ("B", "caller->svc.echo"),
        ("E", "caller->svc.echo"),
    ]
