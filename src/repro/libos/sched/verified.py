"""The verified cooperative scheduler (the paper's Dafny scheduler).

Functionally identical to :class:`CoopScheduler`, but every boundary
operation re-validates the statically-proven pre/post-conditions via
:class:`ContractKit`.  A context switch evaluates eight invariant
clauses, which with the calibrated per-clause cost reproduces the
paper's measurement: 218.6 ns per switch vs 76.6 ns for the C
scheduler (≈3×), while remaining <6% end-to-end for Redis (Fig. 4).
"""

from __future__ import annotations

from repro.libos.sched.base import Thread, ThreadState, WaitQueue
from repro.libos.sched.contracts import ContractKit
from repro.libos.sched.coop import CoopScheduler
from repro.libos.library import export


class VerifiedScheduler(CoopScheduler):
    """Contract-checked scheduler; drop-in replacement for ``sched``."""

    NAME = "sched"
    SPEC = CoopScheduler.SPEC  # same API surface, same trust requirements
    TRUE_BEHAVIOR = CoopScheduler.TRUE_BEHAVIOR
    VERIFIED = True

    def __init__(self) -> None:
        super().__init__()
        self._contracts: ContractKit | None = None

    def on_install(self) -> None:
        super().on_install()
        self._contracts = ContractKit(self.machine, "verified-scheduler")

    @property
    def contracts(self) -> ContractKit:
        """The contract kit (available after install)."""
        assert self._contracts is not None
        return self._contracts

    # --- contract-checked operations -----------------------------------------

    def _check_add(self, thread: Thread) -> None:
        # Pre-conditions of thread_add, straight from the paper's
        # worked example: "one of thread_add's preconditions is to not
        # add a thread that has already been added".
        kit = self.contracts
        kit.check(
            thread.tid not in self.threads,
            f"thread_add pre: thread {thread.tid} not already added",
        )
        kit.check(
            thread not in self.run_queue,
            "thread_add pre: thread not already runnable",
        )
        kit.check(
            thread.state in (ThreadState.READY, ThreadState.BLOCKED),
            "thread_add pre: thread in an addable state",
        )

    @export
    def wake_one(self, waitq: WaitQueue) -> bool:
        kit = self.contracts
        kit.check(isinstance(waitq, WaitQueue), "wake_one pre: valid wait queue")
        woken = super().wake_one(waitq)
        if woken:
            thread = self.run_queue[-1]
            kit.check(
                thread.state is ThreadState.READY,
                "wake_one post: woken thread is READY",
            )
            kit.check(thread.waitq is None, "wake_one post: thread unparked")
        return woken

    @export
    def block_notify(self, waitq: WaitQueue) -> None:
        self.contracts.check(
            isinstance(waitq, WaitQueue), "block pre: valid wait queue"
        )
        super().block_notify(waitq)

    # --- context switch ---------------------------------------------------------

    def _check_switch(self, thread: Thread) -> None:
        # The verified switch re-establishes the scheduler invariants
        # before transferring control: eight clauses at
        # ``contract_check_ns`` each on top of the base switch, giving
        # the paper's 218.6 ns.  A replayed idle round runs them too:
        # CoopScheduler.run replays only after this check.
        kit = self.contracts
        kit.check(thread.state is ThreadState.READY, "switch pre: thread READY")
        kit.check(thread.waitq is None, "switch pre: thread not parked")
        kit.check(thread.tid in self.threads, "switch pre: thread registered")
        kit.check(
            thread not in self.run_queue,
            "switch pre: thread dequeued exactly once",
        )
        kit.check(thread.body is not None, "switch pre: live body")
        kit.check(
            all(t.state is ThreadState.READY for t in self.run_queue),
            "switch inv: run queue holds only READY threads",
        )
        kit.check(
            len(set(t.tid for t in self.run_queue)) == len(self.run_queue),
            "switch inv: run queue has no duplicates",
        )
        kit.check(
            all(t.tid in self.threads for t in self.run_queue),
            "switch inv: run queue threads are registered",
        )
