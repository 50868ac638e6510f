"""Graceful image shutdown and thread teardown."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import run_iperf, start_redis
from repro.libos.sched.base import YIELD, ThreadState, WaitQueue


def test_kill_thread_unwinds_parked_generator():
    image = build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )
    libc = image.lib("libc")
    sem = image.call("libc", "sem_new", 0)
    cleanup = []

    def body():
        try:
            yield from libc.sem_p(sem)
        finally:
            cleanup.append("unwound")

    thread = image.spawn("parked", body, libc)
    image.run(max_switches=10)
    assert thread.state is ThreadState.BLOCKED
    image.scheduler.kill_thread(thread)
    assert cleanup == ["unwound"]
    assert thread.done
    assert image.call("libc", "sem_waiters", sem) == 0


@pytest.mark.parametrize("backend", ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"])
def test_kill_thread_in_cross_compartment_chain(backend):
    """Teardown through a gate chain restores nothing it shouldn't."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "mq"],
            compartments=[["mq"], ["sched", "alloc", "libc"]],
            backend=backend,
        )
    )
    qid = image.call("mq", "q_new", 1)
    libc = image.lib("libc")
    stub = libc.stub("mq")
    popped = []

    def consumer():
        popped.append((yield from stub.call_gen("q_pop", qid)))

    def producer():
        yield from stub.call_gen("q_push", qid, 0x1000, 64)

    # A first crossing fills the gate's context pool; the consumer then
    # parks inside mq's domain holding that pooled context.
    image.spawn("warm-up", producer, libc)
    image.run()
    image.spawn("drain", consumer, libc)
    image.run()
    assert popped == [(0x1000, 64)]
    thread = image.spawn("consumer", consumer, libc)
    image.run(max_switches=10)
    assert thread.state is ThreadState.BLOCKED
    dead_contexts = list(thread.ctx_stack)
    depth_before = image.machine.cpu.context_depth
    image.scheduler.kill_thread(thread)
    assert image.machine.cpu.context_depth == depth_before
    assert thread.done
    # The same gate still works after the kill, and never hands out a
    # context the dead thread was using.
    image.spawn("producer", producer, libc)
    image.spawn("consumer2", consumer, libc)
    image.run()
    assert popped == [(0x1000, 64), (0x1000, 64)]
    assert all(stub.channel._ctx_pool is not ctx for ctx in dead_contexts)


def test_kill_all_counts(image_factory=None):
    image = build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )
    libc = image.lib("libc")

    def spinner():
        while True:
            yield YIELD

    for index in range(3):
        image.spawn(f"s{index}", spinner, libc)
    image.run(max_switches=7)
    assert image.scheduler.kill_all() == 3
    assert image.run() == 0


def test_kill_done_thread_is_noop():
    image = build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )

    def body():
        yield YIELD

    thread = image.spawn("t", body, image.lib("libc"))
    image.run()
    assert thread.done
    image.scheduler.kill_thread(thread)  # no-op, no error


def test_image_shutdown_stops_everything():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="mpk-shared",
        )
    )
    start_redis(image)
    image.shutdown()
    assert image.scheduler.threads == {}
    assert image.scheduler.runnable == 0
    stats = image.call("netstack", "net_stats")
    assert stats["open_sockets"] == 1  # socket table survives teardown


def test_shutdown_after_iperf_run():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "iperf"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
            backend="vm-rpc",
        )
    )
    run_iperf(image, 1024, 1 << 16)
    image.shutdown()
    assert image.scheduler.threads == {}
