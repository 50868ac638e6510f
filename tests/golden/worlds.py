"""Small simulated worlds shared by the golden corpus and the gate tests.

- The ``svc``/``caller`` channel world: two hand-installed compartments
  joined by a sync channel and a queue channel, driven by a seeded
  randomized trace of sync invokes, faulting invokes, blocking
  crossings that suspend or fail, batched queue submissions, and —
  when observed — tracer / edge-latency flips mid-trace and mid-park.
  Observer flips draw from their own RNG, so an observed run executes
  exactly the operations of the unobserved run with the same seed.
- The ``libc``/``mq`` image, with helpers to park consumers inside one
  blocking ``q_pop`` crossing and feed them.
- The redis and Fig. 3 iperf image configurations.
- The replicated three-shard cluster and its seeded client load, with
  a stale forced route, a primary kill + promotion and a shard join,
  all mid-load; cluster variants traced, on the verified scheduler,
  attributing time to domains, or with a periodic sleeper per image.
- The timer world: sleepers whose deadlines span every timer-wheel
  level, a busy yielding thread, and an idle stretch.
- The durable redis world: the benchmark's durable redis image under
  SETs and DELs, one kv merge (the final compaction) and a reboot on
  the same medium.
"""

from __future__ import annotations

import random

from repro import BuildConfig, build_image
from repro.apps.workload import ClosedLoopSource, kv_durable_requests, start_redis
from repro.cluster.cluster import CLUSTER_LIBRARIES, RedisCluster
from repro.gates import GateOptions, make_channel
from repro.libos.blk.blkdev import DiskMedium
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary, export, export_blocking
from repro.libos.sched.base import YIELD, IdleUntil, ThreadState
from repro.machine.capabilities import base_capabilities
from repro.machine.faults import CompartmentFailure, ProtectionFault
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys

BACKENDS = ["mpk-shared", "mpk-switched", "vm-rpc", "cheri"]


# --- the svc/caller channel world ---------------------------------------------


class SvcLibrary(MicroLibrary):
    NAME = "svc"
    SPEC = "[Memory access] Read(Own); Write(Own)"
    CAP_GRANTS = {"touch": ((0, -64),)}

    @export
    def echo(self, *args):
        return args

    @export
    def touch(self, addr):
        return addr

    @export
    def boom(self):
        raise ValueError("boom")

    @export
    def record_free(self, value):
        return value

    @export_blocking
    def sleepy(self):
        yield
        return "done"

    @export_blocking
    def early_fail(self):
        raise ValueError("early")
        yield  # pragma: no cover - makes this a generator

    @export_blocking
    def crash_later(self, addr):
        yield
        raise ProtectionFault(addr, "write", None, "wild write after resume")


class CallerLibrary(MicroLibrary):
    NAME = "caller"
    SPEC = "[Memory access] Read(Own); Write(Own)"


def make_world(backend: str):
    """A machine with the ``svc`` and ``caller`` compartments installed."""
    machine = Machine()
    linker = Linker()
    comp_a = Compartment(0, "svc-comp", machine)
    comp_b = Compartment(1, "caller-comp", machine)
    if backend == "vm-rpc":
        domain_a = machine.new_vm_domain("svc")
        comp_a.vm_domain = domain_a
        comp_a.address_space = domain_a.space
        domain_b = machine.new_vm_domain("caller")
        comp_b.vm_domain = domain_b
        comp_b.address_space = domain_b.space
    else:
        space = machine.new_address_space("main")
        comp_a.address_space = space
        comp_a.pkey = 1
        comp_a.pkru_value = pkru_for_keys(writable=[1, 14])
        comp_b.address_space = space
        comp_b.pkey = 2
        comp_b.pkru_value = pkru_for_keys(writable=[2, 14])
    if backend == "cheri":
        comp_a.capabilities = base_capabilities(comp_a, [])
        comp_b.capabilities = base_capabilities(comp_b, [])
    service = SvcLibrary()
    caller = CallerLibrary()
    service.install(machine, comp_a, linker)
    caller.install(machine, comp_b, linker)
    return machine, service, caller


def enter_caller(machine, caller):
    # Push AFTER channels exist: queue-channel construction grants the
    # group-heap pkey to the compartment, and contexts snapshot PKRU.
    machine.cpu.push_context(caller.compartment.make_context("caller"))


def toggle_observer(machine, rng) -> None:
    """Flip the tracer or per-edge latency recording."""
    if rng.randrange(2):
        machine.obs.tracer.enabled = not machine.obs.tracer.enabled
    else:
        metrics = machine.cpu.metrics
        metrics.record_edge_latency = not metrics.record_edge_latency


def finish(gen):
    """Resume a suspended blocking crossing to completion; its result."""
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("blocking export suspended twice")


def finish_blocking(gen):
    """Drive a blocking crossing from its first ``next()`` to its end."""
    next(gen)
    return finish(gen)


def run_trace(backend: str, seed: int, observe: bool):
    """One seeded randomized trace; returns (results, machine).

    With ``observe`` set, observers flip at random points — between
    operations and while a blocking crossing is parked — drawn from a
    second RNG, so the operations themselves are those of the
    unobserved run.
    """
    machine, service, caller = make_world(backend)
    sync = make_channel(backend, machine, caller, service)
    queued = make_channel(
        f"queue:{backend}",
        machine,
        caller,
        service,
        options=GateOptions(queue_batch=4, queue_depth=16),
    )
    enter_caller(machine, caller)
    rng = random.Random(seed)
    observers = random.Random(seed + 1_000_003)
    results = []
    for _ in range(60):
        op = rng.randrange(9)
        if op == 0:
            args = tuple(rng.randrange(100) for _ in range(rng.randrange(4)))
            results.append(sync.invoke("echo", args))
        elif op == 1:
            results.append(sync.invoke("touch", (rng.randrange(1 << 20),)))
        elif op == 2:
            try:
                sync.invoke("boom", ())
            except ValueError as exc:
                results.append(str(exc))
        elif op == 3:
            results.append(queued.submit("record_free", rng.randrange(50)))
        elif op == 4:
            results.append(queued.flush())
        elif op == 5:
            results.append([(c.ticket, c.fn, c.value) for c in queued.poll()])
        elif op == 6:
            if observe:
                toggle_observer(machine, observers)
        elif op == 7:
            gen = sync.invoke_gen("sleepy", ())
            results.append(next(gen))
            if observe and observers.randrange(2):
                toggle_observer(machine, observers)
            results.append(finish(gen))
        elif op == 8:
            try:
                next(sync.invoke_gen("early_fail", ()))
            except ValueError as exc:
                results.append(str(exc))
    machine.obs.tracer.enabled = False
    queued.flush()
    results.append([(c.ticket, c.fn, c.value) for c in queued.poll()])
    # A containable fault after a suspension, first raw (propagate),
    # then contained (isolate), each followed by a plain and a blocking
    # crossing into the callee — refused once it has failed.
    for policy in ("propagate", "isolate"):
        service.compartment.failure_policy = policy
        gen = sync.invoke_gen("crash_later", (rng.randrange(1 << 20),))
        next(gen)
        try:
            finish(gen)
        except (ProtectionFault, CompartmentFailure) as exc:
            results.append((policy, type(exc).__name__))
        for call in (
            lambda: sync.invoke("echo", (policy,)),
            lambda: finish_blocking(sync.invoke_gen("sleepy", ())),
        ):
            try:
                results.append(call())
            except CompartmentFailure as exc:
                results.append((policy, str(exc)))
        results.append(machine.cpu.context_depth)
    return results, machine


# --- the libc/mq image ----------------------------------------------------------


def mq_image(backend: str):
    return build_image(
        BuildConfig(
            libraries=["libc", "mq"],
            compartments=[["mq"], ["sched", "alloc", "libc"]],
            backend=backend,
        )
    )


def park_consumers(image, qid: int, count: int):
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


def feed(image, qid: int, count: int) -> None:
    libc = image.lib("libc")
    stub = libc.stub("mq")

    def producer():
        for index in range(count):
            yield from stub.call_gen("q_push", qid, 0x1000 * (index + 1), 64)

    image.spawn("producer", producer, libc)
    image.run()


# --- redis and Fig. 3 iperf images ---------------------------------------------


def redis_config(backend: str, hardening: dict, queue_edges=None) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "vfs", "redis"],
        compartments=[["netstack"], ["vfs"], ["sched", "alloc", "libc", "redis"]],
        backend=backend,
        hardening=dict(hardening),
        queue_edges=dict(queue_edges or {}),
    )


def fig3_config(backend: str, hardening: dict, queue_edges=None) -> BuildConfig:
    return BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend=backend,
        hardening=dict(hardening),
        queue_edges=dict(queue_edges or {}),
    )


# --- durable redis through a kv merge and a reboot ------------------------------


def kv_durable_config(backend: str) -> BuildConfig:
    """The benchmark's durable redis image (``redis-durable``)."""
    return BuildConfig(
        libraries=["libc", "netstack", "blk", "kv", "redis"],
        compartments=[["netstack"], ["blk", "kv"], ["sched", "alloc", "libc", "redis"]],
        backend=backend,
    )


class _ReplyLog(ClosedLoopSource):
    """ClosedLoopSource that keeps every reply payload."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.replies: list[bytes] = []

    def sink(self, frame: bytes) -> None:
        super().sink(frame)
        self.replies.append(self.last_response)


def run_kv_durable(backend: str) -> dict:
    """Durable redis, kv flushed on every write, under SETs and DELs;
    then ``compact`` (the load's one kv merge), ``sync``, a reboot on
    the same medium and ``recover``.  Returns both images, the replies, each image's
    ``kv_stats()``, the recovery report, the recovered key → value map,
    the model's map and the medium."""
    medium = DiskMedium()
    image = build_image(kv_durable_config(backend))
    image.lib("blk").attach_medium(medium)
    image.call("kv", "set_flush_policy", "every-write")
    start_redis(image)
    requests, model = kv_durable_requests()
    source = _ReplyLog(image.lib("redis").PORT, requests, window=4)
    netstack = image.lib("netstack")
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = source.sink
    image.run(until=lambda: source.done, max_switches=400 * len(requests))
    image.call("kv", "compact")
    image.call("kv", "sync")
    rebooted = build_image(kv_durable_config(backend))
    rebooted.lib("blk").attach_medium(medium)
    report = rebooted.call("redis", "recover")
    app = rebooted.lib("redis")
    recovered = {key: app.value_of(key) for key in rebooted.call("kv", "kv_keys")}
    return {
        "images": [image, rebooted],
        "replies": source.replies,
        "kv_stats": [image.call("kv", "kv_stats"), rebooted.call("kv", "kv_stats")],
        "report": report,
        "recovered": recovered,
        "model": model,
        "medium": medium,
    }


# --- the replicated cluster -------------------------------------------------------


class TracedCluster(RedisCluster):
    """A cluster whose every image, shard joins included, is traced."""

    def _build_image(self, label: str):
        image, medium, start_redis = super()._build_image(label)
        image.enable_tracing()
        return image, medium, start_redis


class VerifiedCluster(RedisCluster):
    """A cluster whose every machine runs the verified scheduler.

    Built here rather than through a cluster option: the image is the
    one :meth:`RedisCluster._build_image` builds, with
    ``scheduler="verified"``.
    """

    def _build_image(self, label: str):
        from repro.apps.workload import start_redis
        from repro.libos.blk.blkdev import DiskMedium

        image = build_image(
            BuildConfig(
                libraries=list(CLUSTER_LIBRARIES),
                compartments=[list(group) for group in self.compartments],
                backend=self.backend,
                name=label,
                scheduler="verified",
            )
        )
        medium = DiskMedium()
        image.lib("blk").attach_medium(medium)
        image.call("kv", "set_flush_policy", self.flush_policy)
        return image, medium, start_redis


class TracedVerifiedCluster(TracedCluster, VerifiedCluster):
    """The verified-scheduler cluster, every image traced."""


class AttributedCluster(RedisCluster):
    """A cluster whose every CPU attributes simulated time to domains."""

    def _build_image(self, label: str):
        image, medium, start_redis = super()._build_image(label)
        image.machine.cpu.attribute_time = True
        return image, medium, start_redis


#: Sleeper period (ns): shorter than a typical stretch of empty rx
#: polls, so most wake-ups fall inside one.
SLEEPER_PERIOD_NS = 3_100.0
SLEEPER_WAKES = 120


class SleeperCluster(RedisCluster):
    """A cluster whose every image also runs a periodic sleeper thread.

    The sleeper parks on a timer (:class:`IdleUntil`) while the rx
    thread polls an idle wire, so its timers expire in the middle of
    runs of empty polls.  ``wakes`` maps image name to the clock at
    each wake-up.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.wakes: dict[str, list[float]] = {}
        super().__init__(*args, **kwargs)

    def _build_image(self, label: str):
        image, medium, start_redis = super()._build_image(label)
        cpu = image.machine.cpu
        log = self.wakes[label] = []

        def sleeper():
            for _ in range(SLEEPER_WAKES):
                yield IdleUntil(cpu.clock_ns + SLEEPER_PERIOD_NS)
                log.append(cpu.clock_ns)

        image.spawn("sleeper", sleeper, image.lib("redis"))
        return image, medium, start_redis


def run_cluster_load(cluster, client, seed: int) -> None:
    """Seeded SET/GET load over a small key set, with a stale route, a
    primary kill + promotion and a shard join, all mid-load."""
    rng = random.Random(seed)
    keys = [b"key:%02d" % index for index in range(10)]

    def load(count):
        for _ in range(count):
            key = rng.choice(keys)
            if rng.random() < 0.5:
                client.set(key, b"v%08x" % rng.getrandbits(32))
            else:
                client.get(key)

    def drive_until(completed):
        def advanced():
            client.pump()
            return client.completed >= completed

        cluster.fabric.run(until=advanced)

    load(40)
    stale = keys[0]
    client.get(stale)
    client.pending[-1].forced_shard = next(
        name for name in sorted(cluster.shards)
        if name != cluster.map.owner(stale)
    )
    drive_until(12)
    cluster.kill_primary("s1")
    cluster.promote("s1", recover=True)
    load(30)
    drive_until(50)
    cluster.add_shard("s3")
    load(30)
    client.drive()


# --- the timer world ----------------------------------------------------------------

#: Sleep lengths (ns) from the innermost wheel level (< 4.1 µs) through
#: levels 1 (< 262 µs) and 2 (< 16.8 ms) to the top level, and one past
#: the top level's span (~1.07 s).
SLEEPS_NS = (
    700.0,
    3_000.0,
    20_000.0,
    150_000.0,
    1_500_000.0,
    12_000_000.0,
    40_000_000.0,
    250_000_000.0,
    1_200_000_000.0,
)


def timer_image(scheduler: str):
    return build_image(
        BuildConfig(
            libraries=["libc", "time"],
            compartments=[["time"], ["sched", "alloc", "libc"]],
            backend="mpk-shared",
            scheduler=scheduler,
        )
    )


def run_timers(image) -> list:
    """Sleepers on every wheel level, a busy yielding thread, semaphore
    timeouts (one expiring, one beaten by a signal), a killed sleeper,
    two threads idling to one shared deadline, then an idle stretch
    the clock jumps over.  Returns the timestamped event log."""
    time_lib = image.lib("time")
    libc = image.lib("libc")
    scheduler = image.scheduler
    cpu = image.machine.cpu
    events = []

    def log(name, what):
        events.append((name, what, cpu.clock_ns))

    def sleeper(name, sleeps):
        def body():
            for duration in sleeps:
                yield from time_lib.sleep_ns(duration)
                log(name, duration)

        return body

    def idler(name, deadline):
        def body():
            yield IdleUntil(deadline)
            log(name, "idle-until")
            yield IdleUntil(0.0)  # already due: a plain yield
            log(name, "past-deadline")

        return body

    sem = image.call("libc", "sem_new", 0)

    def sem_waiter(name, timeout):
        def body():
            acquired = yield from libc.sem_p_timeout(sem, cpu.clock_ns + timeout)
            log(name, acquired)

        return body

    for index, duration in enumerate(SLEEPS_NS):
        image.spawn(f"sleeper{index}", sleeper(f"s{index}", (duration,)), time_lib)
    image.spawn("rearm", sleeper("rearm", (900.0, 90_000.0, 9_000_000.0)), time_lib)
    victim = image.spawn("victim", sleeper("victim", (30_000_000.0,)), time_lib)
    for index in range(2):
        image.spawn(f"idler{index}", idler(f"i{index}", 7_000.0), time_lib)
    image.spawn("timeout", sem_waiter("timeout", 5_000.0), libc)
    image.spawn("signalled", sem_waiter("signalled", 2_000_000.0), libc)

    def busy():
        for round_ in range(300):
            time_lib.now_ns()
            if round_ == 150:
                image.call("libc", "sem_v", sem)
            if round_ == 200:
                scheduler.kill_thread(victim)
            yield YIELD
        log("busy", "done")
        # The idle stretch: everything left sleeps on outer levels.
        yield from time_lib.sleep_ns(60_000_000.0)
        for _ in range(50):
            time_lib.now_ns()
            yield YIELD
        log("busy", "second-burst")

    image.spawn("busy", busy, time_lib)
    image.run()
    switches = int(image.machine.cpu.metrics.counter("ctx_switches"))
    log("run", (switches, scheduler.pending_timers))
    return events
