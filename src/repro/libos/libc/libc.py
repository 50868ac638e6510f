"""The LibC micro-library: bulk memory ops and semaphores.

Two properties of this library drive the paper's results:

1. **Bulk copies live here.**  ``memcpy`` is what moves payload bytes
   between mbufs and application buffers, so hardening LibC with SH
   multiplies the dominant per-byte work — the paper's Table 1 shows a
   2.3× iperf slowdown for SH-on-LibC alone, far above any other
   component.
2. **Semaphores live here.**  The network stack's wait queues are used
   "through semaphores" implemented in LibC, so even when the network
   stack and the scheduler share a compartment, every block/wake still
   crosses into LibC (and from there into the scheduler) — which is
   exactly why the paper's ``NW+Sched/Rest`` Redis configuration is no
   faster than ``NW/Sched/Rest`` (Fig. 5 discussion).

As an unsafe C code base whose writes cannot be proven bounded, its
FlexOS spec is fully conservative (``Read(*); Write(*); Call *``): the
compatibility analysis will refuse to co-locate it with the scheduler
unless an SH-hardened variant is selected.
"""

from __future__ import annotations

import dataclasses

from repro.libos.library import MicroLibrary, export, export_blocking
from repro.libos.sched.base import Block, WaitQueue
from repro.machine.faults import GateError


@dataclasses.dataclass
class Semaphore:
    """A counting semaphore backed by a scheduler wait queue.

    ``binary`` semaphores clamp the count at 1 (event semantics, used
    for I/O readiness notification); counting semaphores serve bounded
    queues.
    """

    sem_id: int
    count: int
    waitq: WaitQueue
    binary: bool = False


class LibCLibrary(MicroLibrary):
    """LibC subset: memcpy/memset/memcmp/strlen + counting semaphores."""

    NAME = "libc"
    SPEC = """
    [Memory access] Read(*); Write(*)
    [Call] *
    [API] memcpy(dst, src, n); memset(dst, v, n); memcmp(a, b, n); \
strlen(addr); sem_new(value); sem_p(sem); sem_v(sem); sem_value(sem)
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": ["sched::block_notify", "sched::wake_one"],
    }

    API_CONTRACTS = {
        "memcpy": [
            (lambda args: args[2] >= 0, "length must be non-negative"),
        ],
        "memset": [
            (lambda args: args[2] >= 0, "length must be non-negative"),
        ],
        "sem_new": [
            (lambda args: not args or args[0] >= 0, "initial value >= 0"),
        ],
    }
    POINTER_PARAMS = {
        "memcpy": (0, 1),
        "memset": (0,),
        "memcmp": (0, 1),
        "strlen": (0,),
    }
    CAP_GRANTS = {
        "memcpy": ((0, 2), (1, 2)),
        "memset": ((0, 2),),
        "memcmp": ((0, 2), (1, 2)),
        "strlen": ((0, -1024),),
    }

    #: Upper bound for strlen scans (defensive).
    STRLEN_LIMIT = 1 << 20

    def __init__(self) -> None:
        super().__init__()
        self._sems: dict[int, Semaphore] = {}
        self._next_sem = 1
        self._sched = None

    def on_boot(self) -> None:
        self._sched = self.stub("sched")

    # --- memory operations ---------------------------------------------------

    @export
    def memcpy(self, dst: int, src: int, n: int) -> int:
        """Copy ``n`` bytes; returns ``dst`` (C convention)."""
        if n < 0:
            raise ValueError("memcpy length must be non-negative")
        if n:
            self.machine.copy(dst, src, n)
        return dst

    @export
    def memset(self, dst: int, value: int, n: int) -> int:
        """Fill ``n`` bytes with ``value``; returns ``dst``."""
        if n < 0:
            raise ValueError("memset length must be non-negative")
        if n:
            self.machine.fill(dst, value, n)
        return dst

    @export
    def memcmp(self, a: int, b: int, n: int) -> int:
        """Compare two ranges; returns <0, 0 or >0 like C memcmp."""
        if n < 0:
            raise ValueError("memcmp length must be non-negative")
        left = self.machine.load(a, n) if n else b""
        right = self.machine.load(b, n) if n else b""
        if left == right:
            return 0
        return -1 if left < right else 1

    @export
    def strlen(self, addr: int) -> int:
        """Length of the NUL-terminated string at ``addr``."""
        length = 0
        while length < self.STRLEN_LIMIT:
            chunk = self.machine.load(addr + length, 16)
            nul = chunk.find(0)
            if nul >= 0:
                return length + nul
            length += 16
        raise GateError("strlen: no terminator found")

    # --- semaphores -----------------------------------------------------------

    @export
    def sem_new(self, value: int = 0, binary: bool = False) -> int:
        """Create a semaphore; returns its id."""
        if value < 0:
            raise ValueError("semaphore value must be non-negative")
        sem_id = self._next_sem
        self._next_sem += 1
        self._sems[sem_id] = Semaphore(
            sem_id, value, WaitQueue(f"sem:{sem_id}"), binary=binary
        )
        return sem_id

    def _sem(self, sem_id: int) -> Semaphore:
        sem = self._sems.get(sem_id)
        if sem is None:
            raise GateError(f"unknown semaphore {sem_id}")
        return sem

    @export_blocking
    def sem_p(self, sem_id: int):
        """P / wait: decrement, blocking while the count is zero.

        Blocking crosses into the scheduler (``block_notify``) before
        parking — under compartmentalization this is a gate crossing
        per blocking P, the traffic the paper's Fig. 5 analysis points
        at.
        """
        sem = self._sem(sem_id)
        self.charge(self.machine.cost.sem_op_ns)
        while sem.count == 0:
            self._sched.call("block_notify", sem.waitq)
            yield Block(sem.waitq)
        sem.count -= 1

    @export_blocking
    def sem_p_timeout(self, sem_id: int, deadline_ns: float):
        """P with a deadline: returns True on acquire, False on timeout.

        A one-shot scheduler timer wakes the semaphore's wait queue at
        the deadline; a woken waiter that still finds no token past the
        deadline gives up (POSIX ``sem_timedwait`` semantics).
        """
        sem = self._sem(sem_id)
        self.charge(self.machine.cost.sem_op_ns)
        timer_armed = False
        while sem.count == 0:
            if self.machine.cpu.clock_ns >= deadline_ns:
                return False
            if not timer_armed:
                self._sched.call("timer_register", deadline_ns, sem.waitq)
                timer_armed = True
            self._sched.call("block_notify", sem.waitq)
            yield Block(sem.waitq)
        sem.count -= 1
        return True

    @export
    def sem_v(self, sem_id: int) -> None:
        """V / signal: increment and notify the scheduler.

        The wait queue lives with the scheduler, so every signal
        crosses into it — the "intensive use of wait queues through
        semaphores" traffic the paper's Fig. 5 analysis identifies.
        """
        sem = self._sem(sem_id)
        self.charge(self.machine.cost.sem_op_ns)
        if not (sem.binary and sem.count >= 1):
            sem.count += 1
        self._sched.call("wake_one", sem.waitq)

    @export
    def sem_value(self, sem_id: int) -> int:
        """Current count (diagnostics)."""
        return self._sem(sem_id).count

    @export
    def sem_waiters(self, sem_id: int) -> int:
        """Number of threads blocked on the semaphore (diagnostics)."""
        return len(self._sem(sem_id).waitq)
