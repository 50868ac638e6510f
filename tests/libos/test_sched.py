"""Unit tests for the cooperative scheduler and thread machinery."""

import pytest

from repro import BuildConfig, build_image
from repro.libos.sched.base import (
    YIELD,
    Block,
    IdleUntil,
    ThreadState,
    WaitQueue,
    Yield,
)
from repro.machine.faults import GateError


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )


def spawn(image, name, body_factory):
    return image.spawn(name, body_factory, image.lib("libc"))


def test_single_thread_runs_to_completion(image):
    log = []

    def body():
        log.append("a")
        yield YIELD
        log.append("b")

    thread = spawn(image, "t", body)
    switches = image.run()
    assert log == ["a", "b"]
    assert thread.done
    assert switches == 2


def test_round_robin_interleaving(image):
    log = []

    def make(tag):
        def body():
            for step in range(3):
                log.append(f"{tag}{step}")
                yield YIELD

        return body

    spawn(image, "a", make("a"))
    spawn(image, "b", make("b"))
    image.run()
    assert log == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_block_and_wake(image):
    waitq = WaitQueue("test")
    log = []

    def waiter():
        log.append("wait")
        yield Block(waitq)
        log.append("woken")

    def waker():
        yield YIELD  # let the waiter park first
        image.scheduler.wake_one(waitq)
        log.append("signalled")
        yield YIELD

    thread = spawn(image, "waiter", waiter)
    spawn(image, "waker", waker)
    image.run()
    assert thread.done
    assert log == ["wait", "signalled", "woken"]


def test_blocked_thread_survives_run_exit(image):
    waitq = WaitQueue("never")

    def body():
        yield Block(waitq)

    thread = spawn(image, "stuck", body)
    image.run()
    assert thread.state is ThreadState.BLOCKED
    assert thread in waitq
    assert image.scheduler.blocked_threads == [thread]


def test_wake_all(image):
    waitq = WaitQueue("all")
    done = []

    def body():
        yield Block(waitq)
        done.append(1)

    for index in range(3):
        spawn(image, f"t{index}", body)
    image.run()
    assert image.scheduler.wake_one(waitq)  # still parked
    image.scheduler.wake_all(waitq)
    image.run()
    assert len(done) == 3


def test_until_stops_loop(image):
    progressed = []

    def body():
        while True:
            progressed.append(1)
            yield YIELD

    spawn(image, "spinner", body)
    image.run(until=lambda: len(progressed) >= 5)
    assert len(progressed) == 5
    assert image.scheduler.runnable == 1  # still runnable, loop paused


def test_max_switches(image):
    def body():
        while True:
            yield YIELD

    spawn(image, "spinner", body)
    switches = image.run(max_switches=7)
    assert switches == 7


def test_thread_rm(image):
    def body():
        while True:
            yield YIELD

    thread = spawn(image, "victim", body)
    image.scheduler.thread_rm(thread.tid)
    assert image.run() == 0
    with pytest.raises(GateError):
        image.scheduler.thread_rm(thread.tid)


def test_thread_rm_retires_a_blocked_thread(image):
    """A removed thread leaves its wait queue, unwinds, and wakes its
    joiners; a later wake finds nobody to resume."""
    scheduler = image.scheduler
    waitq = WaitQueue("rm")
    log = []

    def victim_body():
        try:
            yield Block(waitq)
            log.append("resumed")
        finally:
            log.append("unwound")

    victim = spawn(image, "victim", victim_body)

    def joiner_body():
        yield from scheduler.thread_join(victim.tid)
        log.append("joined")

    spawn(image, "joiner", joiner_body)
    image.run()
    assert victim.state is ThreadState.BLOCKED and log == []
    scheduler.thread_rm(victim.tid)
    assert victim.done and log == ["unwound"]
    assert len(waitq) == 0
    assert scheduler.wake_one(waitq) is False
    image.run()
    assert log == ["unwound", "joined"]


def test_thread_rm_retires_an_idle_sleeper(image):
    """Removing an ``IdleUntil`` sleeper kills its timer: it never
    resumes and never pulls the clock to its deadline."""
    log = []

    def sleeper_body():
        yield IdleUntil(1e9)
        log.append("woke")

    sleeper = spawn(image, "sleeper", sleeper_body)
    image.run(max_switches=1)
    assert sleeper.state is ThreadState.BLOCKED
    assert image.scheduler.pending_timers == 1
    image.scheduler.thread_rm(sleeper.tid)
    assert image.scheduler.pending_timers == 0
    image.run()
    assert log == [] and sleeper.done
    assert image.clock_ns < 1e9


def test_thread_rm_of_the_running_thread(image):
    log = []

    def body():
        log.append("ran")
        image.scheduler.thread_rm(thread.tid)
        yield YIELD
        log.append("resumed")

    thread = spawn(image, "self-removing", body)
    image.run()
    assert log == ["ran"] and thread.done
    assert thread.tid not in image.scheduler.threads


def test_duplicate_thread_add_rejected(image):
    def body():
        yield YIELD

    thread = spawn(image, "once", body)
    with pytest.raises(GateError):
        image.scheduler.thread_add(thread)


def test_invalid_directive_rejected(image):
    def body():
        yield "nonsense"

    spawn(image, "bad", body)
    with pytest.raises(
        GateError, match="thread bad yielded invalid directive 'nonsense'"
    ):
        image.run()


def test_directive_subclass_is_rejected(image):
    """Dispatch is by exact directive class: a subclass is not one."""

    class LoudYield(Yield):
        pass

    def body():
        yield LoudYield()

    spawn(image, "subclassed", body)
    with pytest.raises(GateError, match="thread subclassed yielded invalid"):
        image.run()


def test_exception_in_thread_propagates(image):
    def body():
        yield YIELD
        raise RuntimeError("thread crashed")

    spawn(image, "crasher", body)
    with pytest.raises(RuntimeError, match="thread crashed"):
        image.run()


def test_context_switch_charges_paper_cost(image):
    def body():
        yield YIELD

    spawn(image, "t", body)
    start = image.clock_ns
    switches = image.run()
    per_switch = (image.clock_ns - start) / switches
    # Slightly above 76.6: the thread-exit wakeup check amortises in
    # (the dedicated microbenchmark pins the exact per-switch figure).
    assert per_switch == pytest.approx(76.6, rel=0.08)


def test_switch_statistics(image):
    def body():
        for _ in range(4):
            yield YIELD

    spawn(image, "t", body)
    image.run()
    assert image.machine.cpu.metrics.counter("ctx_switches") == 5


def test_thread_context_isolation_across_switches():
    """A thread suspended inside a gate chain resumes with its full
    protection-context stack — another thread's contexts never leak."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "mq"],
            compartments=[["mq"], ["sched", "alloc", "libc"]],
            backend="mpk-shared",
        )
    )
    qid = image.call("mq", "q_new", 1)
    mq = image.lib("mq")
    libc = image.lib("libc")
    observed = []

    def consumer():
        stub = libc.stub("mq")
        # Blocks inside mq (a foreign compartment) until pushed.
        item = yield from stub.call_gen("q_pop", qid)
        observed.append(("consumer", item, image.machine.cpu.current.label))

    def producer():
        yield YIELD  # let the consumer block deep inside mq first
        stub = libc.stub("mq")
        yield from stub.call_gen("q_push", qid, 0xAB, 4)
        observed.append(("producer", image.machine.cpu.current.label))

    image.spawn("consumer", consumer, libc)
    image.spawn("producer", producer, libc)
    image.run()
    kinds = [entry[0] for entry in observed]
    assert "consumer" in kinds and "producer" in kinds
    item = next(e[1] for e in observed if e[0] == "consumer")
    assert item == (0xAB, 4)
