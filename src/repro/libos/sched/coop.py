"""The baseline cooperative scheduler (the paper's "C scheduler").

Owns the run queue and the run loop.  Context switches charge the cost
model's ``ctx_switch_ns`` (76.6 ns, the paper's measured figure for the
C scheduler).  The scheduler's memory is as critical as the PKRU
register itself — its spec therefore *requires* co-resident libraries
to never write its memory, which is what forces untrusted C components
out of its compartment (or into SH-hardened variants).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator

from repro.libos.library import MicroLibrary, export, export_blocking
from repro.libos.sched.base import (
    Block,
    IdlePoll,
    IdleUntil,
    Thread,
    ThreadState,
    WaitQueue,
    Yield,
)
from repro.libos.sched.timerwheel import TimerWheel
from repro.machine.faults import (
    CONTAINABLE_FAULTS,
    CompartmentFailure,
    GateError,
)
from repro.obs.tracer import HOST_TRACK, SCHED_TRACK


# The states the run loop and its yield handlers set or test every
# round, bound once: reading a member off an Enum class is a
# metaclass attribute lookup, several times dearer than a global.
_READY = ThreadState.READY
_RUNNING = ThreadState.RUNNING
_DONE = ThreadState.DONE


class CoopScheduler(MicroLibrary):
    """Cooperative round-robin scheduler micro-library."""

    NAME = "sched"
    SPEC = """
    [Memory access] Read(Own,Shared); Write(Own,Shared)
    [Call]
    [API] thread_add(thread); thread_rm(tid); yield_(); wake_one(waitq); \
wake_all(waitq); block_notify(waitq); timer_register(deadline, waitq); \
thread_join(tid)
    [Requires] *(Read,Own), *(Write,Shared), *(Call, thread_add), \
*(Call, thread_rm), *(Call, yield_), *(Call, wake_one), *(Call, wake_all), \
*(Call, block_notify), *(Call, timer_register), *(Call, thread_join)
    """
    TRUE_BEHAVIOR = {"writes": ["Own", "Shared"], "reads": ["Own", "Shared"]}

    #: Default per-thread stack size (4 pages, Unikraft's default order).
    STACK_SIZE = 4 * 4096

    def __init__(self) -> None:
        super().__init__()
        self.run_queue: deque[Thread] = deque()
        self.threads: dict[int, Thread] = {}
        self._next_tid = 1
        #: Pending timers, kept in a hierarchical timer wheel: O(1)
        #: arming, bounded sweeps on advance, exact heap fire order.
        self._timers = TimerWheel()
        self._timer_seq = 0
        #: Directive dispatch table: exact class -> handler, resolved
        #: in one dict lookup on the hot switch path.  Anything else a
        #: thread yields, subclasses included, is an invalid directive.
        self._dispatch: dict[type, Callable] = {
            Yield: self._on_yield,
            Block: self._on_block,
            IdleUntil: self._on_idle_until,
            IdlePoll: self._on_idle_poll,
        }
        #: Rounds replayed instead of resuming an idle poller (host-side
        #: telemetry, kept out of the metrics registry).
        self.idle_replays = 0
        #: Context switches and the one-way domain crossings they made,
        #: counted by the run loop; the registry reads them as
        #: ``ctx_switches`` and ``sched_domain_crossings``.
        self.ctx_switches = 0
        self.domain_crossings = 0
        #: Threads reaped after a contained compartment failure:
        #: (thread name, CompartmentFailure) in death order.
        self.thread_failures: list[tuple[str, CompartmentFailure]] = []
        #: One-way cost of crossing into/out of the scheduler's
        #: protection domain on a context switch.  Set by the builder
        #: from the isolation backend: under MPK, every switch enters
        #: the scheduler compartment (it holds the PKRU of suspended
        #: threads) and exits into the next thread's domain — two
        #: crossings whenever the thread lives in another compartment.
        self.domain_crossing_ns: float = 0.0

    # --- counter source ---------------------------------------------------------

    def on_install(self) -> None:
        self.machine.cpu.metrics.add_source(self)

    def derive_counters(self, view: dict[str, float]) -> None:
        """Add the switch counts to a registry read view."""
        if self.ctx_switches:
            view["ctx_switches"] = view.get("ctx_switches", 0.0) + self.ctx_switches
        if self.domain_crossings:
            view["sched_domain_crossings"] = (
                view.get("sched_domain_crossings", 0.0) + self.domain_crossings
            )

    def zero_counters(self) -> None:
        self.ctx_switches = self.domain_crossings = 0

    # --- thread management (host-side + exported) -------------------------------

    def spawn(
        self,
        name: str,
        body_factory: Callable[[], Generator],
        home_compartment,
    ) -> Thread:
        """Create a thread whose body runs in ``home_compartment``.

        Host-side API used by the image/boot code; the exported
        ``thread_add`` registers an already-built thread (the paper's
        scheduler API surface).
        """
        stack_base = home_compartment.alloc_stack(self.STACK_SIZE)
        context = home_compartment.make_context(label=f"thread:{name}")
        thread = Thread(
            tid=self._next_tid,
            name=name,
            body=body_factory(),
            home_context=context,
            stack_base=stack_base,
            stack_size=self.STACK_SIZE,
            home_compartment=home_compartment,
        )
        self._next_tid += 1
        self.thread_add(thread)
        return thread

    @export
    def thread_add(self, thread: Thread) -> int:
        """Register a thread and make it runnable; returns its tid."""
        self._check_add(thread)
        self.threads[thread.tid] = thread
        thread.state = ThreadState.READY
        self.run_queue.append(thread)
        return thread.tid

    def _check_add(self, thread: Thread) -> None:
        """Validation hook; the verified scheduler adds contracts here."""
        if thread.tid in self.threads:
            raise GateError(f"thread {thread.tid} already added")

    @export
    def thread_rm(self, tid: int) -> None:
        """Remove a thread from scheduling.

        Retires it as :meth:`kill_thread` does: unlinked from its run
        or wait queue (a parked thread's timer dies with it), its body
        closed inside its own contexts, its joiners woken.  A thread
        removing itself cannot close its running body; the run loop
        drops it when its quantum ends.
        """
        thread = self.threads.get(tid)
        if thread is None:
            raise GateError(f"unknown thread {tid}")
        if thread.state is ThreadState.RUNNING:
            thread.state = ThreadState.DONE
            del self.threads[tid]
            self.wake_all(thread.exit_waitq)
            return
        self.kill_thread(thread)

    # --- wait-queue operations ---------------------------------------------------

    @export
    def wake_one(self, waitq: WaitQueue) -> bool:
        """Move the longest-waiting thread to the run queue."""
        self.charge(self.machine.cost.waitq_op_ns)
        thread = waitq.pop()
        if thread is None:
            return False
        thread.state = ThreadState.READY
        thread.waitq = None
        self.run_queue.append(thread)
        return True

    @export
    def wake_all(self, waitq: WaitQueue) -> int:
        """Wake every thread parked on ``waitq``; returns the count."""
        woken = 0
        while self.wake_one(waitq):
            woken += 1
        return woken

    @export
    def block_notify(self, waitq: WaitQueue) -> None:
        """Account for the current thread preparing to block.

        The actual parking happens when the run loop consumes the
        :class:`Block` directive; this call is the crossing into the
        scheduler that a real implementation performs (and where the
        verified scheduler re-checks its preconditions).
        """
        self.charge(self.machine.cost.waitq_op_ns)

    @export
    def yield_(self) -> None:
        """Accounting hook for an explicit yield crossing (no-op here)."""

    @export_blocking
    def thread_join(self, tid: int):
        """Block until the named thread finishes.

        Returns immediately when the thread is unknown (already
        finished and reaped) or already done.
        """
        thread = self.threads.get(tid)
        if thread is None:
            return True
        while not thread.done:
            self.charge(self.machine.cost.waitq_op_ns)
            yield Block(thread.exit_waitq)
        return True

    # --- timers -----------------------------------------------------------------

    @export
    def timer_register(self, deadline_ns: float, waitq: WaitQueue) -> None:
        """Arm a one-shot timer waking ``waitq`` at ``deadline_ns``."""
        self.charge(self.machine.cost.waitq_op_ns)
        self._timer_seq += 1
        self._timers.schedule(deadline_ns, self._timer_seq, waitq)

    @property
    def pending_timers(self) -> int:
        """Number of armed timers somebody is still waiting on."""
        return self._timers.live_count()

    @property
    def timer_cascades(self) -> int:
        """Outer-level wheel re-files so far (host-side telemetry)."""
        return self._timers.cascades

    @property
    def timer_sweeps(self) -> int:
        """Wheel advances that swept its levels (host-side telemetry)."""
        return self._timers.sweeps

    # --- run loop -------------------------------------------------------------

    #: Contract hook run before each switch is charged; the verified
    #: scheduler re-establishes its invariants here.
    _check_switch: Callable[[Thread], None] | None = None

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_switches: int | None = None,
    ) -> int:
        """Run threads until idle / ``until()`` / ``max_switches``.

        Must be called with the scheduler compartment's context active
        (the image's ``run`` does this).  Returns the number of context
        switches performed.  Threads left parked on wait queues when
        the loop stops remain BLOCKED — the caller decides whether that
        is a deadlock or a daemon thread.

        A round with nothing due costs O(1) host work: everything a
        round touches is bound once per call, an empty timer wheel
        only moves its cursor, and each tracer hook sits behind one
        ``_enabled`` test.  When the previous round's thread yielded
        :class:`IdlePoll` and this round switches to it again with
        nothing else runnable, the round replays the thread's next poll
        instead of resuming it whenever ``replay`` vouches that the poll
        comes back empty: the sweep, checks, charges and counts before
        it are the round's own, so only the resumption is skipped.
        Observed runs (tracer or time attribution on) never replay, so
        a replayed round needs no trace events or attributed charges.
        """
        cpu = self.machine.cpu
        charge = cpu.charge
        quantum_ns = cpu.metrics.histogram("sched.quantum_ns").values
        tracer = self.machine.obs.tracer
        timers = self._timers
        collect = timers.collect
        run_queue = self.run_queue
        dispatch = self._dispatch
        check_switch = self._check_switch
        switch_ns = cpu.cost.ctx_switch_ns
        # Under MPK every switch into another compartment's thread
        # enters the scheduler's domain and exits into the thread's:
        # two crossings.
        crossing_ns = 2 * self.domain_crossing_ns
        own = self.compartment
        switches = 0
        # The IdlePoll the last round's thread yielded, and that thread.
        idle = poller = None
        while run_queue or timers:
            if until is not None and until():
                break
            if max_switches is not None and switches >= max_switches:
                break
            # Wake every live timer whose deadline has passed; timers
            # whose sleepers are gone are dropped without a wake.
            for entry in collect(cpu._clock_ns):
                self.wake_all(entry.waitq)
            if not run_queue:
                # Idle: nothing runnable until the next timer — advance
                # the clock to its deadline (the tickless-idle path).
                # Only *live* deadlines count: a timer whose waiters
                # are all gone must not pull the clock forward.
                deadline = timers.next_live_deadline()
                if deadline is None:
                    break
                if deadline > cpu._clock_ns:
                    charge(deadline - cpu._clock_ns)
                    if cpu._clock_ns < deadline:
                        # Float rounding can leave clock + (deadline -
                        # clock) short of the deadline; the timer would
                        # then never come due.
                        raise GateError(
                            f"idle advance left the clock at "
                            f"{cpu._clock_ns!r} ns, short of the next "
                            f"timer deadline {deadline!r} ns"
                        )
                continue
            thread = run_queue.popleft()
            injector = self.machine.injector
            if injector is not None and injector.should_kill(thread):
                # Resilience harness: the thread dies before running
                # (site "sched-kill" — a scheduler-visible thread
                # death, e.g. a stack blowout detected on switch-in).
                self.kill_thread(thread)
                idle = None
                continue
            if check_switch is not None:
                check_switch(thread)
            charge(switch_ns)
            home = thread.home_compartment
            if crossing_ns and home is not None and home is not own:
                charge(crossing_ns)
                self.domain_crossings += 2
            switches += 1
            self.ctx_switches += 1
            quantum_start = cpu._clock_ns
            if idle is not None:
                if (
                    thread is poller
                    and not run_queue
                    and not tracer._enabled
                    and not cpu.attribute_time
                ):
                    poll_ns = idle.replay(quantum_start)
                    if poll_ns is not None:
                        # The poll at this clock would come back empty
                        # and end in the same IdlePoll: charge it and
                        # re-queue the thread, still READY.
                        charge(poll_ns)
                        quantum_ns.append(cpu._clock_ns - quantum_start)
                        run_queue.append(thread)
                        self.idle_replays += 1
                        continue
                idle = None
            thread.state = _RUNNING
            # Route trace events to the running thread's own track so
            # spans it leaves open across a suspension nest correctly.
            if tracer._enabled:
                tracer.set_track(thread.tid, thread.name)
            saved = cpu.swap_context_stack(thread.ctx_stack)
            try:
                directive = next(thread.body)
            except StopIteration:
                directive = None
                thread.state = _DONE
                self.threads.pop(thread.tid, None)
                self.wake_all(thread.exit_waitq)
            except CompartmentFailure as failure:
                # Already contained at a gate boundary: the thread dies,
                # the image keeps running (microkernel-style reaping).
                directive = None
                self._reap_failed(thread, failure)
            except CONTAINABLE_FAULTS as exc:
                # A fault escaped the thread body without crossing a
                # containment boundary — it crashed inside the thread's
                # own home compartment.  The scheduler is the outermost
                # boundary: apply the home compartment's policy.
                comp = thread.home_compartment
                if comp is None or comp.failure_policy == "propagate":
                    raise
                directive = None
                failure = CompartmentFailure(comp.name, cause=exc)
                comp.mark_failed(cpu._clock_ns, failure)
                cpu.bump("resilience.contained")
                self._reap_failed(thread, failure)
            finally:
                thread.ctx_stack = cpu.swap_context_stack(saved)
                if tracer._enabled:
                    tracer.set_track(HOST_TRACK)
            quantum_ns.append(cpu._clock_ns - quantum_start)
            if tracer._enabled:
                tracer.complete(
                    thread.name,
                    "sched",
                    quantum_start,
                    track=SCHED_TRACK,
                    tid=thread.tid,
                    state=thread.state.name,
                )
            if thread.state is _DONE:
                continue
            handler = dispatch.get(directive.__class__)
            if handler is None:
                raise GateError(
                    f"thread {thread.name} yielded invalid directive "
                    f"{directive!r}"
                )
            idle = handler(thread, directive, cpu)
            poller = thread
        return switches

    # --- directive handlers ------------------------------------------------------

    def _on_yield(self, thread: Thread, directive, cpu) -> None:
        thread.state = _READY
        self.run_queue.append(thread)

    def _on_block(self, thread: Thread, directive, cpu) -> None:
        thread.state = ThreadState.BLOCKED
        thread.waitq = directive.waitq
        directive.waitq.park(thread)

    def _on_idle_poll(self, thread: Thread, directive, cpu) -> IdlePoll:
        # A yield; handing the directive back lets the run loop replay
        # the thread's next polls (see run).
        self._on_yield(thread, directive, cpu)
        return directive

    def _on_idle_until(self, thread: Thread, directive, cpu) -> None:
        deadline = directive.deadline_ns
        if deadline <= cpu.clock_ns:
            # Already due: nothing to sleep for.
            thread.state = ThreadState.READY
            self.run_queue.append(thread)
        else:
            # Park on the thread's private idle queue and arm an
            # internal one-shot timer; the tickless-idle branch of the
            # run loop jumps the clock to this deadline once nothing
            # else is runnable (the event-driven clock).
            self.charge(self.machine.cost.waitq_op_ns)
            thread.state = ThreadState.BLOCKED
            thread.waitq = thread.idle_waitq
            thread.idle_waitq.park(thread)
            self._timer_seq += 1
            self._timers.schedule(deadline, self._timer_seq, thread.idle_waitq)

    def _reap_failed(self, thread: Thread, failure: CompartmentFailure) -> None:
        """Retire a thread killed by a contained compartment failure."""
        thread.state = ThreadState.DONE
        thread.failure = failure
        self.threads.pop(thread.tid, None)
        self.thread_failures.append((thread.name, failure))
        self.machine.cpu.bump("resilience.thread_failures")
        tracer = self.machine.obs.tracer
        if tracer.enabled:
            tracer.instant(
                f"thread-failed:{thread.name}",
                "resilience",
                track=SCHED_TRACK,
                compartment=failure.compartment,
            )
        self.wake_all(thread.exit_waitq)

    # --- teardown ---------------------------------------------------------------

    def kill_thread(self, thread: Thread) -> None:
        """Destroy a thread, unwinding its body inside its own contexts.

        Closing the generator raises ``GeneratorExit`` at its suspension
        point; running that unwind with the thread's saved
        protection-context stack installed keeps teardown
        domain-correct (no gate pops against a foreign stack).
        """
        if thread.done:
            return
        cpu = self.machine.cpu
        saved = cpu.swap_context_stack(thread.ctx_stack)
        try:
            thread.body.close()
        finally:
            thread.ctx_stack = cpu.swap_context_stack(saved)
        if thread.waitq is not None:
            # O(1) intrusive unlink (no scan of the queue).
            thread.waitq.remove(thread)
        if thread in self.run_queue:
            self.run_queue.remove(thread)
        thread.state = ThreadState.DONE
        self.threads.pop(thread.tid, None)
        self.wake_all(thread.exit_waitq)

    def kill_all(self) -> int:
        """Destroy every remaining thread; returns how many."""
        killed = 0
        for thread in list(self.threads.values()):
            self.kill_thread(thread)
            killed += 1
        return killed

    # --- introspection ----------------------------------------------------------

    @property
    def runnable(self) -> int:
        """Number of threads currently in the run queue."""
        return len(self.run_queue)

    @property
    def blocked_threads(self) -> list[Thread]:
        """Threads currently parked on wait queues."""
        return [
            thread
            for thread in self.threads.values()
            if thread.state is ThreadState.BLOCKED
        ]
