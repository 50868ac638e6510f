"""Threads, wait queues, and scheduling directives.

Thread bodies are Python generators.  A body — and any blocking
micro-library call it makes via ``yield from stub.call_gen(...)`` —
suspends by yielding a *directive*:

- :data:`YIELD` — voluntarily give up the CPU, stay runnable;
- :class:`Block` — sleep on a wait queue until woken;
- :class:`IdleUntil` — sleep until a known deadline;
- :class:`IdlePoll` — a yield after an empty device poll, whose
  repeats the scheduler may replay without resuming the thread.

The run loop (in the scheduler micro-library) consumes directives.  A
suspended thread's whole protection-context stack is saved in its
control block, because it may be parked deep inside a chain of gate
crossings; this mirrors the paper's observation that the scheduler
"holds the value of the PKRU for threads that are not currently
running" and therefore must be trusted under MPK.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Callable, Generator

if TYPE_CHECKING:
    from repro.machine.cpu import Context


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class Yield:
    """Directive: give up the CPU but remain runnable."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "YIELD"


#: The single Yield directive instance thread bodies should yield.
YIELD = Yield()


@dataclasses.dataclass
class Block:
    """Directive: park the current thread on ``waitq`` until woken."""

    waitq: "WaitQueue"


@dataclasses.dataclass
class IdleUntil:
    """Directive: sleep until the simulated clock reaches a deadline.

    Yielded by driver threads that know exactly when their device next
    has work (e.g. the netstack rx loop while the wire is serialising a
    backlog).  The scheduler parks the thread on its private idle queue
    and arms an internal timer; once every thread is blocked this way,
    the run loop's tickless-idle branch jumps the clock straight to the
    earliest deadline instead of burning empty polling quanta — the
    event-driven clock.  A deadline already in the past degrades to a
    plain :data:`YIELD`.
    """

    deadline_ns: float


@dataclasses.dataclass
class IdlePoll:
    """Directive: a device poll came back empty; stay runnable.

    Yielded by a polling driver thread (the netstack rx loop) whose
    device had nothing and cannot say when it will: the wire is idle,
    so there is no arrival time to sleep until (compare
    :class:`IdleUntil`).  The scheduler treats it as :data:`YIELD`.
    While the thread then stays the only runnable one, the run loop
    may replay its following polls instead of resuming it: one call
    ``replay(now)`` per round, where ``now`` is the clock the poll
    would run at.  ``replay`` applies that poll's device-state effects
    and returns its cost in ns when the poll is certain to come back
    empty again and end in this same directive; otherwise it changes
    nothing and returns None, and the round runs for real.
    """

    replay: "Callable[[float], float | None]"


class WaitQueue:
    """A FIFO of blocked threads (semaphores, socket readiness, ...).

    Intrusive doubly-linked list threaded through the parked threads'
    ``_wq_next``/``_wq_prev`` fields: park, pop, targeted removal
    (``kill_thread``) and membership tests are all O(1) with no
    per-operation allocation.  A thread can be parked on at most one
    wait queue at a time — which the simulator already guarantees,
    since a blocked thread is suspended and cannot block again.
    """

    __slots__ = ("name", "_head", "_tail", "_size")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._head: "Thread | None" = None
        self._tail: "Thread | None" = None
        self._size = 0

    def park(self, thread: "Thread") -> None:
        """Add a thread to the queue (run-loop use)."""
        if thread._wq is not None:
            raise RuntimeError(
                f"{thread!r} is already parked on {thread._wq!r}"
            )
        thread._wq = self
        thread._wq_prev = self._tail
        thread._wq_next = None
        if self._tail is None:
            self._head = thread
        else:
            self._tail._wq_next = thread
        self._tail = thread
        self._size += 1

    def pop(self) -> "Thread | None":
        """Remove and return the longest-waiting thread, if any."""
        thread = self._head
        if thread is None:
            return None
        self._unlink(thread)
        return thread

    def remove(self, thread: "Thread") -> bool:
        """Remove a specific thread (kill path); True if it was parked here."""
        if thread._wq is not self:
            return False
        self._unlink(thread)
        return True

    def _unlink(self, thread: "Thread") -> None:
        prev, nxt = thread._wq_prev, thread._wq_next
        if prev is None:
            self._head = nxt
        else:
            prev._wq_next = nxt
        if nxt is None:
            self._tail = prev
        else:
            nxt._wq_prev = prev
        thread._wq = thread._wq_next = thread._wq_prev = None
        self._size -= 1

    def __len__(self) -> int:
        return self._size

    def __contains__(self, thread: "Thread") -> bool:
        return thread._wq is self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WaitQueue({self.name!r}, waiting={len(self)})"


class Thread:
    """A simulated thread: generator body + saved protection contexts."""

    def __init__(
        self,
        tid: int,
        name: str,
        body: Generator,
        home_context: "Context",
        stack_base: int = 0,
        stack_size: int = 0,
        home_compartment: object | None = None,
    ) -> None:
        self.tid = tid
        self.name = name
        self.body = body
        self.state = ThreadState.READY
        #: Compartment the thread's entry code lives in (used to decide
        #: whether a context switch crosses a protection boundary).
        self.home_compartment = home_compartment
        #: Saved protection-context stack (PKRU + address space chain).
        self.ctx_stack: list["Context"] = [home_context]
        #: Wait queue the thread is currently parked on, if any.
        self.waitq: WaitQueue | None = None
        #: Intrusive wait-queue links (owned by :class:`WaitQueue`).
        self._wq: WaitQueue | None = None
        self._wq_next: "Thread | None" = None
        self._wq_prev: "Thread | None" = None
        #: Private queue for :class:`IdleUntil` sleeps (timer wakeups).
        self.idle_waitq = WaitQueue(f"idle:{tid}")
        #: Home stack region (one per compartment under switched gates).
        self.stack_base = stack_base
        self.stack_size = stack_size
        #: Threads blocked in thread_join on this thread.
        self.exit_waitq = WaitQueue(f"exit:{tid}")
        #: Set when the thread died of a contained compartment failure
        #: (the scheduler reaped it instead of crashing the image).
        self.failure: Exception | None = None

    @property
    def done(self) -> bool:
        """True once the body generator has finished."""
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Thread({self.tid}, {self.name!r}, {self.state.value})"
