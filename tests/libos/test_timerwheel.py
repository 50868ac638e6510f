"""Hierarchical timer wheel: placement, cascades, dead-timer pruning.

The wheel replaces the scheduler's sorted-heap timer queue; these tests
pin the behaviors the scheduler depends on — exact heap-compatible fire
order (by ``(deadline_ns, seq)``), correct firing for deadlines far
beyond the innermost wheel's span (cascading down levels), and the
dead-timer semantics: an armed timer whose wait queue has emptied never
fires, never counts as pending, and never attracts the tickless-idle
clock.
"""

import pytest

from repro import BuildConfig, build_image
from repro.libos.sched.base import YIELD
from repro.libos.sched.timerwheel import RESOLUTION_NS, SLOTS, TimerWheel


class Waiters:
    """Stand-in wait queue: the wheel only ever asks for its length."""

    def __init__(self, n=1):
        self.n = n

    def __len__(self):
        return self.n


def test_fires_in_deadline_then_seq_order():
    wheel = TimerWheel()
    waitq = Waiters()
    # Same-tick collisions: all three land in one 64 ns slot.
    wheel.schedule(100.0, 3, waitq)
    wheel.schedule(70.0, 1, waitq)
    wheel.schedule(70.0, 2, waitq)
    wheel.schedule(5_000.0, 4, waitq)
    due = wheel.collect(120.0)
    assert [(e.deadline_ns, e.seq) for e in due] == [
        (70.0, 1),
        (70.0, 2),
        (100.0, 3),
    ]
    assert len(wheel) == 1  # the 5 µs timer is still armed
    assert wheel.collect(5_000.0)[0].seq == 4
    assert len(wheel) == 0


def test_not_due_until_exact_deadline():
    wheel = TimerWheel()
    wheel.schedule(1_000.0, 1, Waiters())
    assert wheel.collect(999.9) == []
    assert len(wheel) == 1
    assert [e.seq for e in wheel.collect(1_000.0)] == [1]


def test_fractional_tick_deadline_waits_for_the_clock():
    # A deadline mid-tick must not fire when the wheel's integer tick
    # is reached but the float clock is still short of the deadline.
    wheel = TimerWheel()
    deadline = RESOLUTION_NS * 10 + 17.5
    wheel.schedule(deadline, 1, Waiters())
    assert wheel.collect(RESOLUTION_NS * 10) == []
    assert [e.seq for e in wheel.collect(deadline)] == [1]


@pytest.mark.parametrize(
    "deadline",
    [
        RESOLUTION_NS * SLOTS * 3,  # level 1
        RESOLUTION_NS * SLOTS**2 * 5,  # level 2
        RESOLUTION_NS * SLOTS**3 * 2,  # level 3 (top)
        1e12,  # ~17 simulated minutes, beyond every level span
    ],
)
def test_far_deadlines_fire_once_exactly(deadline):
    wheel = TimerWheel()
    wheel.schedule(deadline, 1, Waiters())
    assert wheel.collect(deadline - 1.0) == []
    assert [e.seq for e in wheel.collect(deadline)] == [1]
    assert wheel.collect(deadline + 1e9) == []


def test_outer_level_entries_cascade_down():
    wheel = TimerWheel()
    base = RESOLUTION_NS * SLOTS * 4
    for seq, offset in enumerate([0.0, 64.0, 640.0], start=1):
        wheel.schedule(base + offset, seq, Waiters())
    assert wheel.cascades == 0
    assert wheel.collect(base - RESOLUTION_NS) == []
    # Landing on the group's level-1 slot fires the first entry and
    # cascades the still-future ones down into level-0 slots.
    assert [e.seq for e in wheel.collect(base)] == [1]
    assert wheel.cascades > 0
    assert [e.seq for e in wheel.collect(base + 640.0)] == [2, 3]


def test_dead_entries_dropped_silently():
    wheel = TimerWheel()
    live = Waiters(1)
    dead = Waiters(0)
    wheel.schedule(100.0, 1, dead)
    wheel.schedule(200.0, 2, live)
    assert len(wheel) == 2  # raw count: loop-condition truthiness
    assert wheel.live_count() == 1  # but only one is worth waiting for
    due = wheel.collect(300.0)
    assert [e.seq for e in due] == [2]
    assert len(wheel) == 0


def test_cancel_then_fire_boundary():
    # A waiter that leaves *after* scheduling (killed, woken through
    # another path) empties the queue in place; collect must drop the
    # entry instead of firing it.
    wheel = TimerWheel()
    waiters = Waiters(1)
    wheel.schedule(500.0, 1, waiters)
    waiters.n = 0
    assert wheel.collect(1_000.0) == []
    assert len(wheel) == 0 and wheel.live_count() == 0


def test_next_live_deadline_skips_dead_timers():
    wheel = TimerWheel()
    dead = Waiters(0)
    wheel.schedule(100.0, 1, dead)
    assert wheel.next_live_deadline() is None
    wheel.schedule(RESOLUTION_NS * SLOTS * 7, 2, Waiters(2))
    assert wheel.next_live_deadline() == RESOLUTION_NS * SLOTS * 7
    assert wheel.live_count() == 1


def test_interleaved_schedule_and_collect_preserve_order():
    wheel = TimerWheel()
    fired = []
    wheel.schedule(1_000.0, 1, Waiters())
    fired += [e.seq for e in wheel.collect(1_000.0)]
    # Re-arm behind the already-advanced wheel: a past deadline must
    # still fire on the next collect (never lost in a swept slot).
    wheel.schedule(900.0, 2, Waiters())
    wheel.schedule(2_000.0, 3, Waiters())
    fired += [e.seq for e in wheel.collect(1_500.0)]
    fired += [e.seq for e in wheel.collect(2_000.0)]
    assert fired == [1, 2, 3]


def test_empty_wheel_collect_does_not_sweep(monkeypatch):
    # An idle scheduler round polls the wheel with nothing armed: the
    # cursor moves, no level is swept, however far the clock went.
    wheel = TimerWheel()

    def no_sweep(target_tick):
        raise AssertionError(f"swept an empty wheel up to tick {target_tick}")

    monkeypatch.setattr(wheel, "_advance", no_sweep)
    for now in (100.0, 5_000.0, 400_000.0, 20_000_000.0, 2e9):
        assert wheel.collect(now) == []
    assert wheel.sweeps == 0


def test_timer_armed_after_an_empty_advance_fires_at_its_deadline():
    wheel = TimerWheel()
    now = 2e9
    assert wheel.collect(now) == []
    behind = now - 5_000.0  # behind the moved cursor: due at once
    far = now + RESOLUTION_NS * SLOTS**3 * 3 + 17.5  # top level, mid-tick
    wheel.schedule(far, 1, Waiters())
    wheel.schedule(behind, 4, Waiters())
    wheel.schedule(behind, 3, Waiters())
    wheel.schedule(behind - 1_000.0, 5, Waiters())
    assert [(e.deadline_ns, e.seq) for e in wheel.collect(now)] == [
        (behind - 1_000.0, 5),
        (behind, 3),
        (behind, 4),
    ]
    assert wheel.sweeps == 0  # the due entries needed no sweep
    assert wheel.collect(far - 0.5) == []
    assert [(e.deadline_ns, e.seq) for e in wheel.collect(far)] == [(far, 1)]
    assert wheel.sweeps > 0 and len(wheel) == 0


# --- scheduler-level regression: timers for killed sleepers ---------------


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc", "time"],
            compartments=[["sched", "alloc", "libc", "time"]],
            backend="none",
        )
    )


def test_killed_sleeper_leaves_no_pending_timer(image):
    """Killing a sleeper disarms its wake-up for accounting purposes.

    Regression: the heap-based scheduler kept the timer entry, so
    ``pending_timers`` over-reported, the idle path advanced the clock
    to a deadline nobody waited on, and the "fire" charged a wait-queue
    operation to wake zero threads.
    """
    time_lib = image.lib("time")
    scheduler = image.scheduler
    woke = []

    def sleeper_body():
        yield from time_lib.sleep_ns(50_000_000)  # 50 ms: far future
        woke.append(1)

    sleeper = image.spawn("sleeper", sleeper_body, time_lib)

    def killer_body():
        yield YIELD
        scheduler.kill_thread(sleeper)

    image.spawn("killer", killer_body, time_lib)
    image.run()
    assert woke == []
    assert scheduler.pending_timers == 0
    # Tickless idle must not have chased the dead deadline.
    assert image.machine.cpu.clock_ns < 50_000_000


def test_live_sleeper_still_wakes_next_to_dead_one(image):
    time_lib = image.lib("time")
    scheduler = image.scheduler
    order = []

    def dead_body():
        yield from time_lib.sleep_ns(5_000)
        order.append("dead")

    def live_body():
        yield from time_lib.sleep_ns(10_000)
        order.append("live")

    victim = image.spawn("victim", dead_body, time_lib)

    def killer_body():
        yield YIELD
        scheduler.kill_thread(victim)

    image.spawn("live", live_body, time_lib)
    image.spawn("killer", killer_body, time_lib)
    image.run()
    assert order == ["live"]
    assert scheduler.pending_timers == 0
    assert image.machine.cpu.clock_ns >= 10_000
