"""Blocking gate crossings on the crossing plan.

A blocking export (``mq.q_pop``, ``libc.sem_p``, ``netstack.recv``)
suspends inside the callee's domain, so its crossing spans scheduler
switches: other threads may cross the same gate meanwhile, an observer
may come on, or the thread may be killed while parked.  These tests
drive such crossings through real images and pin the plan path to the
interpreted one (``REPRO_GATEPLAN=0``) across all of it.
"""

from __future__ import annotations

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_iperf
from repro.libos.sched.base import ThreadState
from repro.obs import chrome_trace, validate_chrome_trace
from repro.tools.report import machine_telemetry

BACKENDS = ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"]


def _mq_image(backend: str, gateplan: bool, monkeypatch):
    monkeypatch.setenv("REPRO_GATEPLAN", "1" if gateplan else "0")
    return build_image(
        BuildConfig(
            libraries=["libc", "mq"],
            compartments=[["mq"], ["sched", "alloc", "libc"]],
            backend=backend,
        )
    )


def _park_consumers(image, qid: int, count: int):
    """Spawn ``count`` consumers and run until all park in ``q_pop``.

    Returns (threads, per-consumer records, the libc->mq channel).  A
    warm-up crossing first fills the gate's context pool, so the first
    consumer takes the pooled context and the others must build their
    own.
    """
    libc = image.lib("libc")
    stub = libc.stub("mq")
    cpu = image.machine.cpu
    returned = []

    def warm_up():
        stub.call("q_len", qid)
        yield from ()

    def consumer(name):
        def body():
            home = cpu.current
            item = yield from stub.call_gen("q_pop", qid)
            returned.append((name, item, cpu.context_depth, cpu.current is home))

        return body

    image.spawn("warm-up", warm_up, libc)
    image.run()
    threads = [
        image.spawn(f"consumer{index}", consumer(f"c{index}"), libc)
        for index in range(count)
    ]
    image.run(max_switches=10)
    assert all(thread.state is ThreadState.BLOCKED for thread in threads)
    return threads, returned, stub.channel


def _feed(image, qid: int, count: int) -> None:
    libc = image.lib("libc")
    stub = libc.stub("mq")

    def producer():
        for index in range(count):
            yield from stub.call_gen("q_push", qid, 0x1000 * (index + 1), 64)

    image.spawn("producer", producer, libc)
    image.run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_threads_parked_in_one_gate(backend, monkeypatch):
    """Two crossings suspended in the same gate keep separate contexts."""
    runs = []
    for gateplan in (True, False):
        image = _mq_image(backend, gateplan, monkeypatch)
        qid = image.call("mq", "q_new", 2)
        threads, returned, channel = _park_consumers(image, qid, 2)
        # Each parked crossing holds its own callee context (the pooled
        # one went to the first consumer, the pool was then empty).
        first, second = (thread.ctx_stack[1] for thread in threads)
        assert first is not second
        if gateplan:
            assert channel._plan.hits >= 3  # warm-up + two q_pops
        _feed(image, qid, 2)
        assert sorted(returned) == [
            ("c0", (0x1000, 64), 1, True),
            ("c1", (0x2000, 64), 1, True),
        ]
        runs.append(image.machine.cpu.snapshot())
    assert runs[0] == runs[1]


def test_traced_blocking_crossing_takes_interpreted_path(monkeypatch):
    """Tracer on at entry: no plan hit, one B/E pair on the thread's track."""
    image = _mq_image("mpk-shared", True, monkeypatch)
    qid = image.call("mq", "q_new", 1)
    tracer = image.enable_tracing()
    threads, _, channel = _park_consumers(image, qid, 1)
    hits = channel._plan.hits
    _feed(image, qid, 1)
    assert channel._plan.hits == hits
    tid = threads[0].tid
    pops = [
        event["ph"]
        for event in tracer.events
        if event["name"] == "libc->mq.q_pop" and event["tid"] == tid
    ]
    assert pops == ["B", "E"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_tracer_on_while_parked_matches_interpreted_trace(backend, monkeypatch):
    """An observer switched on mid-park changes nothing the trace shows."""
    traces = []
    for gateplan in (True, False):
        image = _mq_image(backend, gateplan, monkeypatch)
        qid = image.call("mq", "q_new", 1)
        threads, returned, _ = _park_consumers(image, qid, 1)
        tracer = image.enable_tracing()
        _feed(image, qid, 1)
        assert returned == [("c0", (0x1000, 64), 1, True)]
        traces.append((chrome_trace(tracer), image.machine.cpu.snapshot()))
    assert traces[0] == traces[1]
    assert validate_chrome_trace(traces[0][0]) == []


def test_fig3_iperf_runs_entirely_on_the_plan(monkeypatch):
    """Every crossing of a whole iperf run, recv included, hits a plan."""
    monkeypatch.setenv("REPRO_GATEPLAN", "1")
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="mpk-shared",
        )
    )
    run_iperf(image, 256, 1 << 18)
    plans = machine_telemetry([image])["gateplan"]
    assert plans["edge_crossings"] > 2000
    assert plans["plan_hits"] == plans["edge_crossings"]
    assert plans["plan_hit_rate"] == 1.0
