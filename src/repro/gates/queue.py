"""Asynchronous submission/completion-queue channels (batched crossings).

The paper's cost hierarchy makes gate crossings the dominant tax of
isolation — two WRPKRUs per MPK call, a VM notification per EPT call.
An io_uring-style queue pair amortises that tax: the caller appends
fixed-size submission entries (SQEs) to a ring in memory shared by
exactly the two endpoint compartments (a group-scoped heap,
:mod:`repro.libos.alloc.groupheap`), then rings the doorbell **once per
batch** — a single gate crossing through the wrapped backend.  The
callee drains the ring inside that one crossing and posts completion
entries (CQEs) to the completion ring, which the caller later polls
without crossing at all.

:class:`QueueChannel` wraps *any* boundary backend (``mpk-shared``,
``mpk-switched``, ``vm-rpc``, ``cheri``) — batching is orthogonal to
the isolation mechanism, exactly like guards and hardening.  A pending
submission goes through on the first of:

- **batch** (``queue_batch``): auto-flush once this many submissions
  are pending;
- **explicit flush**: ``flush``/``drain``/``wait_completions``;
- **ring capacity** (``queue_depth``): a full ring forces a flush;
- **program order**: a *sync* ``invoke``/``invoke_gen`` on the same
  channel flushes first, so queued operations are never overtaken by a
  later synchronous call (reads observe queued writes).

Crash-mid-batch semantics follow :meth:`Gate.invoke_batch`: unacked
submissions are not durable — an op that faults gets its translated
failure in its completion, later ops in the batch abort with the same
failure, earlier results stand.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Generator

from repro.gates.base import (
    Channel,
    Completion,
    Gate,
    GateOptions,
    _require_factory,
)
from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.machine.machine import Machine


class QueueChannel(Channel):
    """Submission/completion rings over a wrapped boundary gate."""

    #: Fixed submission-queue entry size: opcode hash, ticket, and a
    #: cacheline-friendly argument area (pointers into shared memory).
    SQE_BYTES = 32
    #: Fixed completion-queue entry size: ticket, status, result word.
    CQE_BYTES = 16

    IS_BOUNDARY = True

    def __init__(
        self,
        machine: "Machine",
        inner: Gate,
        options: GateOptions | None = None,
    ) -> None:
        _require_factory(type(self))
        super().__init__()
        if not inner.IS_BOUNDARY:
            raise GateError(
                "queue channels amortise boundary crossings; "
                f"{inner.KIND!r} crosses no boundary (use it directly)"
            )
        self.machine = machine
        self.inner = inner
        self.options = options or inner.options
        self.KIND = f"queue:{inner.KIND}"
        # Re-point the inner gate's edge record at the compound kind so
        # doorbell crossings are attributed to the queue variant.
        self.caller_lib = inner.caller_lib
        self.callee_lib = inner.callee_lib
        inner._attach_edge(self.KIND)
        self._pending: list[tuple[int, str, tuple]] = []
        self._metrics = machine.cpu.metrics
        self._batch_hist = self._metrics.histogram("queue.batch_size")
        self._depth_hist = self._metrics.histogram("queue.ring_depth")
        # Rings live in a shared heap scoped to exactly the two
        # endpoint compartments (per-pair shared region, paper §3).
        heaps = machine.group_heaps
        if heaps is None:
            from repro.libos.alloc.groupheap import GroupSharedHeaps

            heaps = machine.group_heaps = GroupSharedHeaps(machine)
        members = []
        for lib in (inner.caller_lib, inner.callee_lib):
            if lib.compartment is None:
                raise GateError(
                    f"queue channel endpoints must be installed; "
                    f"{lib.NAME} has no compartment"
                )
            members.append(lib.compartment)
        allocator = heaps.get(members).allocator
        depth = self.options.queue_depth
        if depth < 1:
            raise GateError("queue_depth must be at least 1")
        self._depth = depth
        self._sq_base = allocator.malloc(depth * self.SQE_BYTES)
        self._cq_base = allocator.malloc(depth * self.CQE_BYTES)
        self._sq_tail = 0
        self._cq_tail = 0
        self._cq_head = 0

    # --- ring bookkeeping -----------------------------------------------------

    @property
    def crossings(self) -> int:
        """Doorbell crossings paid so far (delegates to the gate)."""
        return self.inner.crossings

    def _sqe_addr(self, index: int) -> int:
        return self._sq_base + (index % self._depth) * self.SQE_BYTES

    def _cqe_addr(self, index: int) -> int:
        return self._cq_base + (index % self._depth) * self.CQE_BYTES

    @staticmethod
    def _descriptor(ticket: int, fn: str, size: int) -> bytes:
        """A deterministic fixed-size ring entry for ticket + opcode."""
        payload = (ticket & 0xFFFFFFFF).to_bytes(4, "little")
        payload += zlib.crc32(fn.encode()).to_bytes(4, "little")
        return payload.ljust(size, b"\x00")

    # --- async surface --------------------------------------------------------

    def capabilities(self) -> frozenset:
        return frozenset({"sync", "async", "batched"})

    def submit(self, fn: str, *args: Any) -> int:
        """Append one SQE; flushes on ring-full or batch-size policy."""
        # Entry-point enforcement and the caller's call monitors (CFI)
        # run at submission time, once per op, so a bad op fails where
        # the caller can see it — never queued, never run — not
        # batches later inside someone else's flush.
        self.inner.admit(fn)
        if len(self._pending) >= self._depth:
            self.flush()
        ticket = self._take_ticket()
        self.machine.store(
            self._sqe_addr(self._sq_tail),
            self._descriptor(ticket, fn, self.SQE_BYTES),
        )
        self._sq_tail += 1
        self._pending.append((ticket, fn, args))
        cpu = self.machine.cpu
        cpu.bump("queue.submitted")
        self._depth_hist.observe(len(self._pending))
        if len(self._pending) >= self.options.queue_batch:
            self.flush()
        return ticket

    def flush(self) -> int:
        """Ring the doorbell: one crossing executes the whole batch."""
        if not self._pending:
            return 0
        ops = self._pending
        self._pending = []
        # The callee's ring walk: one SQE load per drained submission.
        head = self._sq_tail - len(ops)
        for offset in range(len(ops)):
            self.machine.load(self._sqe_addr(head + offset), self.SQE_BYTES)
        try:
            completions = self.inner.invoke_batch(ops)
        except BaseException:
            # The doorbell itself failed (RPC timeout, propagate-policy
            # fault): nothing executed, so the batch stays pending and
            # a retry is legitimate.
            self._pending = ops + self._pending
            raise
        for completion in completions:
            self.machine.store(
                self._cqe_addr(self._cq_tail),
                self._descriptor(completion.ticket, completion.fn, self.CQE_BYTES),
            )
            self._cq_tail += 1
        self._completed.extend(completions)
        cpu = self.machine.cpu
        cpu.bump("queue.doorbells")
        cpu.bump("queue.completions", len(completions))
        self._batch_hist.observe(len(ops))
        return len(ops)

    def poll(self, max_items: int | None = None) -> list[Completion]:
        """Drain ready completions; one CQE load per drained entry."""
        self.machine.cpu.bump("queue.polls")
        drained = super().poll(max_items)
        for _ in drained:
            self.machine.load(self._cqe_addr(self._cq_head), self.CQE_BYTES)
            self._cq_head += 1
        return drained

    @property
    def pending(self) -> int:
        return len(self._pending)

    # --- sync surface: flush-before, so program order holds -------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        self.flush()
        return self.inner.invoke(fn, args)

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        self.flush()
        return (yield from self.inner.invoke_gen(fn, args))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QueueChannel {self.caller_lib.NAME}->{self.callee_lib.NAME} "
            f"over {self.inner.KIND} pending={len(self._pending)}>"
        )
