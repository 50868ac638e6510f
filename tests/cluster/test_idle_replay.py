"""Replayed idle rounds: where a stretch of empty rx polls ends, exactly.

A fabric node whose inbox holds nothing due spends its rounds in empty
rx polls.  After the first such round, while the rx thread is the only
runnable one, each round of ``CoopScheduler.run`` that switches to it
replays its poll instead of resuming it, unless the run is observed
(tracer or time attribution on).  Each test drives one stretch to one
of its boundaries and checks, from the clock and the NIC counters that
``until()`` sees at the top of every round, the round and clock at
which the stretch ended: a round that ran for real called
``NIC.rx_poll``, a replayed one did not.  Every scenario also runs on a
twin node whose scheduler dispatches ``IdlePoll`` as a plain yield, so
every round of it runs for real: both must agree on every round, bit
for bit.
"""

from __future__ import annotations

from repro import BuildConfig, build_image
from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.cluster.fabric import Fabric
from repro.libos.sched.base import YIELD, IdlePoll, IdleUntil
from repro.libos.sched.coop import CoopScheduler
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import InjectionPlan
from tests.golden.worlds import run_cluster_load

PORT = 7000
PAYLOAD = b"*1\r\n$4\r\nPING\r\n"


def never_replay(image) -> None:
    """Dispatch ``IdlePoll`` as a plain yield: every round runs for real."""
    scheduler = image.scheduler
    scheduler._dispatch[IdlePoll] = scheduler._on_yield


class World:
    """One fabric node (libc + netstack) parked in its first idle poll."""

    def __init__(self, replay: bool) -> None:
        self.image = build_image(BuildConfig(libraries=["libc", "netstack"]))
        self.node = Fabric().add_node("n0", self.image, PORT)
        self.netstack = self.image.lib("netstack")
        self.nic = self.netstack.nic
        self.cpu = self.image.machine.cpu
        self.scheduler = self.image.scheduler
        if not replay:
            never_replay(self.image)
        (self.rx,) = self.scheduler.threads.values()
        cost = self.cpu.cost
        self.round_ns = (cost.ctx_switch_ns, cost.nic_op_ns / 8)
        self.polls = 0
        rx_poll = self.nic.rx_poll

        def counted_rx_poll():
            self.polls += 1
            return rx_poll()

        self.nic.rx_poll = counted_rx_poll
        # One real round: the rx thread finds the wire idle.
        self.image.run(max_switches=1)
        #: (clock, rx packets, real rx polls) at each until() call.
        self.tops: list[tuple[float, int, int]] = []

    def top(self) -> None:
        self.tops.append((self.cpu.clock_ns, self.nic.rx_packets, self.polls))

    def run(self, stop_at=None, max_switches=None, hook=None) -> int:
        """Run one ``image.run``; ``stop_at(world)`` is its until()."""

        def until() -> bool:
            self.top()
            if hook is not None:
                hook(self)
            return stop_at is not None and stop_at(self)

        return self.image.run(until=until, max_switches=max_switches)

    def idle_clocks(self, start: float, rounds: int) -> list[float]:
        """Clocks at the top of ``rounds`` further empty-poll rounds."""
        switch_ns, poll_ns = self.round_ns
        clocks = [start]
        for _ in range(rounds):
            clocks.append((clocks[-1] + switch_ns) + poll_ns)
        return clocks

    def clocks(self) -> list[float]:
        return [clock for clock, _, _ in self.tops]

    def real_polls(self, first: int, last: int) -> int:
        """Real rx polls in rounds ``first`` .. ``last - 1``."""
        return self.tops[last][2] - self.tops[first][2]

    def state(self) -> tuple:
        return (
            [(clock, packets) for clock, packets, _ in self.tops],
            self.cpu.clock_ns,
            self.cpu.snapshot(),
            self.cpu.metrics.snapshot(),
            self.cpu.metrics.counter("ctx_switches"),
            self.nic.rx_packets,
        )


def both(scenario):
    """Run ``scenario`` replayed and not; returns the replayed world."""
    replayed, plain = World(replay=True), World(replay=False)
    scenario(replayed)
    scenario(plain)
    assert plain.scheduler.idle_replays == 0
    assert replayed.state() == plain.state()
    return replayed


def test_stretch_ends_in_the_round_whose_poll_reaches_the_inbox_head():
    def scenario(world):
        arrival = world.node.deliver(PAYLOAD, sent_at_ns=world.cpu.clock_ns)
        world.arrival = arrival
        world.run(stop_at=lambda w: w.nic.rx_packets == 1, max_switches=1000)

    world = both(scenario)
    switch_ns, _ = world.round_ns
    clocks = world.clocks()
    # Round k polls at clocks[k] + switch_ns; the first poll at or past
    # the arrival consumes the packet, every earlier one is empty.
    consumer = next(
        k for k, clock in enumerate(clocks) if clock + switch_ns >= world.arrival
    )
    assert consumer > 50
    assert len(clocks) == consumer + 2
    assert world.tops[consumer + 1][1] == 1
    assert all(packets == 0 for _, packets, _ in world.tops[: consumer + 1])
    assert clocks[: consumer + 1] == world.idle_clocks(clocks[0], consumer)
    # The run's first round is real, the rest of the stretch replayed,
    # and the consuming round real again: it takes the packet, then
    # finds the ring empty.
    assert world.real_polls(0, 1) == 1
    assert world.real_polls(1, consumer) == 0
    assert world.real_polls(consumer, consumer + 1) == 2
    assert world.scheduler.idle_replays == consumer - 1


def test_stretch_ends_at_max_switches():
    def scenario(world):
        world.switches = world.run(max_switches=40)

    world = both(scenario)
    assert world.switches == 40
    # The round after the last still asks until() before the limit.
    assert len(world.tops) == 41
    assert world.real_polls(0, 40) == 1
    assert world.scheduler.idle_replays == 39
    assert world.clocks() == world.idle_clocks(world.tops[0][0], 40)
    assert world.cpu.clock_ns == world.clocks()[-1]


def test_stretch_ends_in_the_round_whose_sweep_finds_a_due_timer():
    def scenario(world):
        cpu = world.cpu
        deadline = cpu.clock_ns + 2_000.0
        world.deadline = deadline
        world.woke = []

        def sleeper():
            yield IdleUntil(deadline)
            world.woke.append(cpu.clock_ns)

        world.image.spawn("sleeper", sleeper, world.netstack)
        world.run(stop_at=lambda w: bool(w.woke), max_switches=200)

    world = both(scenario)
    clocks = world.clocks()
    # Round 0 runs the rx thread, round 1 parks the sleeper, round 2
    # polls for real; from round 3 the rx thread is alone and its
    # polls replay until the round whose sweep finds the timer due.
    due = next(k for k, clock in enumerate(clocks) if clock >= world.deadline)
    assert clocks[due - 1] < world.deadline <= clocks[due]
    assert clocks[2 : due + 1] == world.idle_clocks(clocks[2], due - 2)
    assert world.real_polls(2, 3) == 1
    assert world.real_polls(3, due) == 0
    # That round wakes the sleeper and polls for real; the sleeper runs
    # in the next, and the run stops at the one after.
    assert world.real_polls(due, due + 1) == 1
    assert world.woke == [clocks[due + 1] + world.round_ns[0]]
    assert len(clocks) == due + 3
    assert world.scheduler.idle_replays == due - 3


def test_timers_a_few_ns_apart_wake_in_successive_rounds():
    """Deadlines ``D`` and ``D + 5``, ``D`` exactly a replayed round's
    clock: that round sweeps once and wakes only the first sleeper; the
    waking itself moves the clock past ``D + 5``, and the second sleeper
    wakes in the next round's sweep."""

    def spawn_sleepers(world, first):
        world.woke = []
        for name, deadline in (("s1", first), ("s2", first + 5.0)):

            def sleeper(name=name, deadline=deadline):
                yield IdleUntil(deadline)
                world.woke.append((name, world.cpu.clock_ns))

            world.image.spawn(name, sleeper, world.netstack)

    # Parking costs the same whatever the deadline, so a probe whose
    # sleepers never wake finds the clocks of the stretch's rounds.
    probe = World(replay=True)
    spawn_sleepers(probe, 1e12)
    probe.run(max_switches=40)
    deadline = probe.clocks()[20]

    def scenario(world):
        spawn_sleepers(world, deadline)
        world.run(stop_at=lambda w: len(w.woke) == 2, max_switches=200)

    world = both(scenario)
    clocks = world.clocks()
    assert clocks[:21] == probe.clocks()[:21]
    assert clocks[20] == deadline
    # Round 0 polls, rounds 1 and 2 park the sleepers, round 3 polls
    # for real and rounds 4..19 replay.
    assert world.real_polls(3, 4) == 1
    assert world.real_polls(4, 20) == 0
    # Round 20 wakes s1 alone, so the rx thread polls for real; round
    # 21 wakes s2 and runs s1, round 22 polls, round 23 runs s2.
    assert world.real_polls(20, 21) == 1
    assert [name for name, _ in world.woke] == ["s1", "s2"]
    assert clocks[21] < world.woke[0][1] < clocks[22]
    assert world.real_polls(21, 23) == 1
    assert clocks[23] < world.woke[1][1] < clocks[24]
    assert len(clocks) == 25
    assert world.scheduler.idle_replays == 16


def test_until_turning_true_ends_the_stretch_with_one_call_per_round():
    def scenario(world):
        world.switches = world.run(stop_at=lambda w: len(w.tops) == 25)

    world = both(scenario)
    # until() ran once per round plus the call that stopped the run.
    assert world.switches == 24
    assert len(world.tops) == 25
    assert world.real_polls(0, 24) == 1
    assert world.scheduler.idle_replays == 23
    assert world.clocks() == world.idle_clocks(world.tops[0][0], 24)


def test_stretch_ends_when_a_second_thread_becomes_runnable():
    def scenario(world):
        world.ran = []

        def spawn_at_round_10(w):
            if len(w.tops) == 10:

                def visitor():
                    w.ran.append(w.cpu.clock_ns)
                    yield from ()

                w.image.spawn("visitor", visitor, w.netstack)

        world.run(stop_at=lambda w: len(w.tops) == 14, hook=spawn_at_round_10)

    world = both(scenario)
    # Rounds 1..8 replay; round 9 (after the spawn) polls for real,
    # round 10 runs the visitor, round 11 polls for real and round 12
    # starts a new stretch.
    assert world.clocks()[:10] == world.idle_clocks(world.tops[0][0], 9)
    assert world.real_polls(1, 9) == 0
    assert world.real_polls(9, 10) == 1
    assert world.ran == [world.tops[10][0] + world.round_ns[0]]
    assert world.real_polls(10, 11) == 0
    assert world.real_polls(11, 12) == 1
    assert world.real_polls(12, 13) == 0
    assert world.scheduler.idle_replays == 8 + 1


def test_stretch_ends_when_the_netstack_stops():
    def scenario(world):
        def stop_at_round_6(w):
            if len(w.tops) == 6:
                w.image.call("netstack", "stop")

        world.run(hook=stop_at_round_6, max_switches=50)

    world = both(scenario)
    # Rounds 1..4 replay; the round after the stop resumes the rx
    # thread, which exits without polling, and the run ends.
    assert world.rx.done
    assert len(world.tops) == 6
    assert world.clocks() == world.idle_clocks(world.tops[0][0], 5)
    assert world.real_polls(1, 5) == 0
    assert world.polls == world.tops[1][2]
    assert world.scheduler.idle_replays == 4


def test_stretch_ends_when_the_injector_kills_the_poller():
    def scenario(world):
        # Counts the rx thread's switch-ins from here on.
        plan = InjectionPlan().kill_thread("netstack-rx", nth=12)
        world.injector = FaultInjector(plan).attach(world.image)
        world.run(max_switches=50)

    world = both(scenario)
    # Its 12th switch-in in this run is round 11: rounds 1..10 replay
    # (each one asks the injector first), round 11 kills the thread
    # before it runs, and the run ends with nothing left.
    assert world.rx.done
    assert [event.site for event in world.injector.events] == ["sched-kill"]
    assert len(world.tops) == 12
    assert world.clocks() == world.idle_clocks(world.tops[0][0], 11)
    assert world.real_polls(1, 11) == 0
    assert world.scheduler.idle_replays == 10


def test_a_round_whose_thread_is_killed_ends_the_stretch():
    def scenario(world):
        def visitor():
            while True:
                yield YIELD

        world.image.spawn("visitor", visitor, world.netstack)
        plan = InjectionPlan().kill_thread("visitor", nth=1)
        world.injector = FaultInjector(plan).attach(world.image)
        world.run(max_switches=20)

    world = both(scenario)
    # Round 0 polls with the visitor queued, round 1 kills the visitor
    # before it runs (no switch), and round 2, the first with the rx
    # thread alone, polls for real: the round before it ended in no
    # IdlePoll.  Rounds 3..20 replay.
    assert [event.site for event in world.injector.events] == ["sched-kill"]
    assert len(world.tops) == 22
    assert world.real_polls(0, 1) == 1
    assert world.real_polls(2, 3) == 1
    assert world.real_polls(3, 21) == 0
    assert world.scheduler.idle_replays == 18


def verified_world(replay: bool, observed: bool):
    """A verified-scheduler mpk-shared node run for 300 rounds around
    one delivery; returns the image and its simulated state."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack"],
            backend="mpk-shared",
            scheduler="verified",
        )
    )
    node = Fabric().add_node("n0", image, PORT)
    if not replay:
        never_replay(image)
    cpu = image.machine.cpu
    if observed:
        cpu.attribute_time = True
        image.enable_tracing()
    node.deliver(PAYLOAD, sent_at_ns=5_000.0)
    image.run(max_switches=300)
    state = (cpu.clock_ns, cpu.snapshot(), cpu.metrics.snapshot())
    if observed:
        state += (dict(cpu.domain_time_ns), image.machine.obs.tracer.events)
    return image, state


def test_verified_rounds_replay_bit_identically():
    """Replayed rounds run the verified switch contract and the domain
    crossings of real ones."""
    replayed, expected = verified_world(replay=True, observed=False)
    plain, observed = verified_world(replay=False, observed=False)
    assert replayed.scheduler.idle_replays > 200
    assert plain.scheduler.idle_replays == 0
    assert expected == observed


def test_traced_attributed_rounds_never_replay():
    """With the tracer and time attribution on, every round resumes its
    thread: the trace events and per-domain time are the real ones."""
    replayed, expected = verified_world(replay=True, observed=True)
    plain, observed = verified_world(replay=False, observed=True)
    assert replayed.scheduler.idle_replays == 0
    assert plain.scheduler.idle_replays == 0
    assert expected == observed


def test_nearly_every_empty_poll_of_the_corpus_cluster_is_replayed(monkeypatch):
    """Digests cannot tell a replay that silently never happens: count
    the empty polls that ran for real against the replayed ones."""
    real = []
    on_idle_poll = CoopScheduler._on_idle_poll

    def counting(self, thread, directive, cpu):
        real.append(thread)
        return on_idle_poll(self, thread, directive, cpu)

    monkeypatch.setattr(CoopScheduler, "_on_idle_poll", counting)
    cluster = RedisCluster(shards=("s0", "s1", "s2"), backend="none", replicate=True)
    run_cluster_load(cluster, ClusterClient(cluster), seed=3)
    replayed = sum(image.scheduler.idle_replays for image in cluster.images())
    assert replayed / (replayed + len(real)) >= 0.95


def test_a_source_installed_by_assignment_never_replays():
    """Only the source given to ``NIC.attach_source`` may look ahead."""
    world = World(replay=True)
    world.nic.rx_source = world.node._rx_source
    world.run(max_switches=20)
    assert world.scheduler.idle_replays == 0
    assert world.real_polls(0, 20) == 20
