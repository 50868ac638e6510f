"""Gate base machinery: the Channel ABC and caller-side instrumentation.

Every gate (and the direct-call channel) enforces the micro-library API
surface: only exported functions can be invoked, so "code execution
starts only at well-defined entry points" regardless of backend.  The
caller side charges the caller profile's per-call instrumentation
(stack protector, SafeStack) and runs its call monitors (CFI target
checks) — hardening travels with the *calling* compartment's code, not
with the channel.

Boundary gates are also the containment line of the fault model (see
:mod:`repro.machine.faults`): a containable fault escaping the callee
is translated into :class:`CompartmentFailure` when the callee
compartment's failure policy asks for it, and crossings into a failed
compartment fail fast (``isolate``) or revive it after its backoff
deadline (``restart-with-backoff``).

:class:`Channel` is the interface every inter-library channel
implements — sync (``invoke``/``invoke_gen``) *and* async
(``submit``/``poll``/``flush``).  Sync-only channels inherit a default
``submit`` that degrades to one crossing per operation, so callers
written against the async surface run unchanged on every backend; the
queue channel (:mod:`repro.gates.queue`) overrides it to batch many
submissions into one doorbell crossing.

Construct channels through :func:`repro.gates.registry.make_channel`;
direct gate instantiation raises :class:`GateError`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING, Any, Generator

from repro.libos.sched.base import WaitFlush
from repro.machine.faults import (
    CONTAINABLE_FAULTS,
    CompartmentFailure,
    GateError,
)

if TYPE_CHECKING:
    from repro.libos.compartment import Compartment
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


@dataclasses.dataclass
class GateOptions:
    """Per-gate security/performance knobs (paper Fig. 2 menu)."""

    #: Clear scratch registers on domain switches (prevents data leaks
    #: through registers at a small per-crossing cost).
    clear_registers: bool = True
    #: Bytes charged for copying one argument/return value.
    word_bytes: int = 8
    #: Wrap boundary channels in API guards (paper §5 precondition +
    #: pointer checks).  Applied by :func:`make_channel`; guards are
    #: never generated for same-compartment direct channels.
    api_guards: bool = False
    #: (start, end) ranges pointer arguments may legitimately reference
    #: besides the caller's own memory (the shared heap); consulted by
    #: the API guards.
    shared_ranges: tuple[tuple[int, int], ...] = ()
    #: VM-RPC only: notifications sent before the gate gives up on a
    #: lossy event channel and raises ``RPCTimeout``.
    rpc_max_retries: int = 3
    #: VM-RPC only: multiplier on the timeout charged per retry
    #: (exponential backoff).
    rpc_backoff_factor: float = 2.0
    #: Queue channels only: submission/completion ring capacity
    #: (entries).  A full ring forces a flush.
    queue_depth: int = 64
    #: Queue channels only: auto-flush (ring the doorbell) once this
    #: many submissions are pending.
    queue_batch: int = 8
    #: Queue channels only: flush-latency bound — the oldest pending
    #: submission is never delayed past this many simulated ns (0
    #: disables the deadline; flushes happen on batch/explicit/sync
    #: boundaries only).
    queue_max_delay_ns: float = 0.0


#: Set while :func:`repro.gates.registry.make_channel` constructs a
#: gate; direct instantiation outside the factory raises GateError.
#: Thread-local because images are built concurrently (measure_many's
#: pool).
_FACTORY = threading.local()


def _require_factory(cls: type) -> None:
    """The factory guard: channels exist only via make_channel."""
    if not getattr(_FACTORY, "active", False):
        raise GateError(
            f"direct instantiation of {cls.__name__} is not supported; "
            "construct channels via repro.gates.make_channel(kind, ...)"
        )


class _PlanEntry:
    """One export's precompiled crossing state (see :class:`CrossingPlan`).

    ``extra`` is backend payload — e.g. the CHERI gate stashes the
    export's ``CAP_GRANTS`` specs so the fast path never re-reads the
    class dict per call.
    """

    __slots__ = ("fn", "handler", "blocking", "ctx_label", "extra")

    def __init__(self, fn, handler, blocking, ctx_label):
        self.fn = fn
        self.handler = handler
        self.blocking = blocking
        self.ctx_label = ctx_label
        self.extra = None


class CrossingPlan:
    """Per-edge precompiled crossing state, built once per channel.

    Compiled at channel construction: one :class:`_PlanEntry` per
    export (resolved handler, blocking flag, the context label the slow
    path would build with an f-string per call).  ``observing`` caches
    whether any observer — the tracer or per-edge latency recording —
    is live; it is re-resolved only when the machine's observability
    epoch moves (one int compare per invoke), and while an observer is
    live every crossing takes the original slow path, which is
    trivially bit-identical.  ``hits``/``refreshes`` are host-side
    telemetry (never in the metrics registry, so snapshots stay
    identical across the ``REPRO_GATEPLAN`` toggle).
    """

    __slots__ = ("entries", "epoch", "observing", "hits", "refreshes", "_gate")

    def __init__(self, gate: "Gate") -> None:
        self._gate = gate
        callee = gate.callee_lib
        blocking = callee.blocking_exports
        self.entries = {
            fn: _PlanEntry(fn, handler, fn in blocking, gate._plan_ctx_label(fn))
            for fn, handler in callee.exports.items()
        }
        self.epoch = -1
        self.observing = True
        self.hits = 0
        self.refreshes = 0

    def refresh(self, epoch: int) -> None:
        """Re-resolve observer enablement after an obs-epoch bump."""
        gate = self._gate
        self.observing = gate.IS_BOUNDARY and (
            gate._tracer._enabled or gate._metrics._record_edge_latency
        )
        self.epoch = epoch
        self.refreshes += 1


@dataclasses.dataclass
class Completion:
    """One finished submission: its ticket and result (or error).

    ``error`` carries exactly the exception the equivalent sync
    ``invoke`` would have raised (already translated per the callee's
    failure policy), so error handling is uniform across delivery
    styles.
    """

    ticket: int
    fn: str
    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Channel:
    """Interface every inter-library channel implements.

    Sync surface: :meth:`invoke` / :meth:`invoke_gen`.  Async surface:
    :meth:`submit` / :meth:`poll` / :meth:`flush` / :meth:`close` plus
    the :meth:`capabilities` query.  The async defaults here degrade to
    one crossing per operation (``submit`` invokes immediately and the
    completion is ready at once), so callers written against the async
    surface never branch on channel kind — a queue channel just makes
    the same code pay one crossing per batch instead of per op.
    """

    #: Channel kind identifier ("direct", "mpk-shared", "queue:...").
    KIND = "abstract"
    #: True for channels that cross a compartment boundary.
    IS_BOUNDARY = True

    def __init__(self) -> None:
        #: Completions ready to be drained by :meth:`poll`.
        self._completed: list[Completion] = []
        self._next_ticket = 1

    # --- sync surface -------------------------------------------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        raise NotImplementedError

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        raise NotImplementedError

    # --- async surface ------------------------------------------------------

    def capabilities(self) -> frozenset:
        """Feature tags of this channel ("sync", "async", ...)."""
        return frozenset({"sync"})

    @property
    def supports_async(self) -> bool:
        """True when submissions are actually deferred and batched."""
        return "async" in self.capabilities()

    def submit(self, fn: str, *args: Any) -> int:
        """Enqueue one operation; returns its completion ticket.

        Sync channels execute immediately (one crossing, completion
        available at once) and raise errors right here, exactly like
        :meth:`invoke`.  Async channels defer execution to the next
        flush and deliver errors through the completion instead.
        """
        ticket = self._take_ticket()
        value = self.invoke(fn, args)
        self._completed.append(Completion(ticket, fn, value=value))
        return ticket

    def poll(self, max_items: int | None = None) -> list[Completion]:
        """Drain (up to ``max_items``) ready completions, oldest first."""
        if max_items is None or max_items >= len(self._completed):
            drained = self._completed
            self._completed = []
            return drained
        drained = self._completed[:max_items]
        del self._completed[:max_items]
        return drained

    def flush(self) -> int:
        """Force pending submissions through; returns how many flushed.

        Always 0 for sync channels — nothing is ever pending.
        """
        return 0

    @property
    def pending(self) -> int:
        """Submissions accepted but not yet executed (sync: always 0)."""
        return 0

    @property
    def completions_ready(self) -> int:
        """Completions available to :meth:`poll` right now."""
        return len(self._completed)

    def flush_deadline_ns(self) -> float | None:
        """Simulated deadline of the oldest pending submission, if any."""
        return None

    def flush_if_due(self) -> int:
        """Flush when the max-delay deadline has passed; ops flushed."""
        deadline = self.flush_deadline_ns()
        if deadline is not None and self.machine.cpu.clock_ns >= deadline:
            return self.flush()
        return 0

    def bind_scheduler(self, scheduler) -> None:
        """Attach the scheduler that delivers completion wakeups."""

    def close(self) -> None:
        """Flush pending work and release channel resources."""
        self.flush()

    def wait_completions(self, min_count: int = 1) -> Generator:
        """Blocking helper: drive with ``yield from`` in a thread body.

        Suspends (via the :class:`~repro.libos.sched.base.WaitFlush`
        directive) until ``min_count`` completions are available, then
        drains and returns them.  On sync channels completions are
        ready at submit time, so this returns without suspending; on a
        queue channel with a max-delay policy the scheduler parks the
        thread with an ``IdleUntil``-style timer at the flush deadline.
        """
        while self.completions_ready < min_count:
            if not self.pending:
                raise GateError(
                    f"waiting for {min_count} completion(s) but only "
                    f"{self.completions_ready} submitted and none pending"
                )
            if self.flush_deadline_ns() is None:
                # No latency bound to wait out: flush on behalf of the
                # waiter instead of parking forever.
                self.flush()
                continue
            self.machine.cpu.bump("queue.wait_parks")
            yield WaitFlush(self)
            self.flush_if_due()
        return self.poll(min_count)

    def drain(self) -> list["Completion"]:
        """Flush pending submissions and drain *every* completion.

        The synchronous error-delivery helper: rings the doorbell,
        empties the completion ring, and re-raises the first deferred
        error — exactly what a sync call would have raised at the
        submission site.  On sync channels this is just a poll.
        """
        self.flush()
        completions = self.poll()
        for completion in completions:
            if completion.error is not None:
                raise completion.error
        return completions

    # --- internal -----------------------------------------------------------

    def _take_ticket(self) -> int:
        ticket = self._next_ticket
        self._next_ticket += 1
        return ticket


class Gate(Channel):
    """Common behaviour for every gate-backed channel implementation.

    Crossing accounting is unified here: every invocation increments
    the channel's own ``crossings``, its caller→callee edge in the
    metrics registry, the shared ``gate_crossings`` counter (for every
    compartment-boundary channel, regardless of backend) and the
    backend's own counter — so counts agree across backends instead of
    each gate bumping an ad-hoc subset.
    """

    #: True for channels that cross a compartment boundary; only the
    #: same-compartment DirectChannel clears it.  Boundary channels
    #: count toward ``gate_crossings``, get trace spans, and act as
    #: containment boundaries for the fault model.
    IS_BOUNDARY = True
    #: Backend-specific counter bumped alongside the unified ones
    #: ("mpk_crossings", "vm_rpcs", ...); empty string disables it.
    EXTRA_COUNTER = ""

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        _require_factory(type(self))
        super().__init__()
        self.machine = machine
        self.caller_lib = caller_lib
        self.callee_lib = callee_lib
        self.options = options if options is not None else GateOptions()
        self.crossings = 0
        self._metrics = machine.cpu.metrics
        self._edge = self._metrics.edge(
            caller_lib.NAME, callee_lib.NAME, self.KIND
        )
        self._tracer = machine.obs.tracer
        # --- crossing-plan fast path -----------------------------------
        # Everything the hot invoke needs, flattened into attributes so
        # the fast path does no cost-model / registry attribute chasing.
        # All precomputed values feed the *same* charge/bump sequence
        # the slow path issues, so the REPRO_GATEPLAN toggle cannot
        # change any simulated observable.
        self._obs = machine.obs
        self._caller_name = caller_lib.NAME
        self._callee_name = callee_lib.NAME
        self._counters = self._metrics.counters
        self._call_ns = machine.cost.call_ns
        self._ret_ns = machine.cost.ret_ns
        self._is_boundary = self.IS_BOUNDARY
        bumps = []
        if self._is_boundary:
            bumps.append("gate_crossings")
        if self.EXTRA_COUNTER:
            bumps.append(self.EXTRA_COUNTER)
        self._bump_names = tuple(bumps)
        #: Pooled callee Context reused by non-nested fast invokes (a
        #: plain invoke cannot suspend, so the context is dead again by
        #: the time the call returns).
        self._ctx_pool = None
        self._plan: CrossingPlan | None = None
        if machine.gateplan_enabled:
            self._plan = CrossingPlan(self)
            machine.gate_plans.append(self._plan)

    # --- shared plumbing ----------------------------------------------------

    def _lookup(self, fn: str, blocking: bool):
        """Entry-point enforcement: only exports are callable."""
        callee = self.callee_lib
        handler = callee.exports.get(fn)
        if handler is None:
            raise GateError(
                f"{callee.NAME} has no export {fn!r} "
                f"(called from {self.caller_lib.NAME})"
            )
        is_blocking = fn in callee.blocking_exports
        if blocking and not is_blocking:
            raise GateError(f"{callee.NAME}.{fn} is not a blocking export")
        if not blocking and is_blocking:
            raise GateError(
                f"{callee.NAME}.{fn} is blocking; use call_gen / yield from"
            )
        return handler

    def _caller_side(self, fn: str) -> None:
        """Charge the call itself plus caller-profile instrumentation."""
        cpu = self.machine.cpu
        profile = cpu.current.profile
        cpu.charge(self.machine.cost.call_ns + profile.call_extra_ns)
        for monitor in profile.call_monitors:
            monitor(self.caller_lib.NAME, self.callee_lib.NAME, fn)

    def _record_crossing(self) -> None:
        """Unified crossing accounting (channel, edge, CPU counters)."""
        self.crossings += 1
        self._edge.crossings += 1
        cpu = self.machine.cpu
        if self.IS_BOUNDARY:
            cpu.bump("gate_crossings")
        if self.EXTRA_COUNTER:
            cpu.bump(self.EXTRA_COUNTER)

    def _latency_start(self) -> float | None:
        """Simulated start time of a crossing, when profiling wants it.

        Only boundary crossings are worth a latency sample, and only
        when a profiling session flipped ``record_edge_latency`` on —
        reading the clock charges nothing, so recording is invisible to
        the simulation either way.
        """
        if self.IS_BOUNDARY and self._metrics.record_edge_latency:
            return self.machine.cpu.clock_ns
        return None

    def _latency_end(self, started: float | None) -> None:
        """Record one crossing's simulated round-trip duration."""
        if started is not None:
            self._metrics.edge_latency(
                self.caller_lib.NAME, self.callee_lib.NAME
            ).observe(self.machine.cpu.clock_ns - started)

    def _trace_begin(self, fn: str) -> int | None:
        """Open a crossing span; returns its track id, or None.

        Spans ride the calling thread's track, so a blocking call that
        suspends keeps its span open across the suspension and closes
        it after resume — other threads' events land on other tracks.
        The track id is returned so teardown paths (a thread destroyed
        while parked inside the call) can close the span even though
        the tracer has moved on to another track by then.
        """
        tracer = self._tracer
        if not (tracer.enabled and self.IS_BOUNDARY):
            return None
        tracer.begin(
            f"{self.caller_lib.NAME}->{self.callee_lib.NAME}.{fn}",
            "gate",
            kind=self.KIND,
        )
        return tracer.current_track

    # --- fault containment ---------------------------------------------------

    def _check_available(self) -> None:
        """Fail fast — or restart — crossings into a failed compartment."""
        if not self.IS_BOUNDARY:
            return
        comp: "Compartment | None" = self.callee_lib.compartment
        if comp is None or not comp.failed:
            return
        cpu = self.machine.cpu
        if comp.restart_due(cpu.clock_ns):
            cpu.charge(self.machine.cost.compartment_restart_ns)
            comp.restart()
            cpu.bump("resilience.restarts")
            if self._tracer.enabled:
                self._tracer.instant(
                    f"restart:{comp.name}", "resilience", restarts=comp.restarts
                )
            return
        raise CompartmentFailure(
            comp.name,
            cause=comp.last_failure.cause if comp.last_failure else None,
            detail="compartment unavailable after failure",
        )

    def _contain(self, exc: BaseException) -> CompartmentFailure | None:
        """Translate a callee fault per the callee's failure policy.

        Returns the :class:`CompartmentFailure` to raise instead, or
        ``None`` when the raw fault should propagate (non-boundary
        channel, or ``propagate`` policy — the paper's baseline
        whole-image crash).
        """
        comp: "Compartment | None" = self.callee_lib.compartment
        if (
            not self.IS_BOUNDARY
            or comp is None
            or comp.failure_policy == "propagate"
        ):
            return None
        cpu = self.machine.cpu
        failure = CompartmentFailure(comp.name, cause=exc)
        comp.mark_failed(cpu.clock_ns, failure)
        cpu.bump("resilience.contained")
        if self._tracer.enabled:
            self._tracer.instant(
                f"contained:{comp.name}",
                "resilience",
                cause=type(exc).__name__,
            )
        return failure

    def _inject(self, fn: str) -> None:
        """Resilience-harness hook, called inside the callee's domain."""
        injector = self.machine.injector
        if injector is not None:
            injector.on_crossing(self, fn)

    # --- domain switch hooks (overridden by real gates) ---------------------------

    def _enter(self, fn: str, args: tuple) -> None:
        """Perform/charge the switch into the callee's domain."""

    def _exit(self) -> None:
        """Perform/charge the switch back into the caller's domain."""

    def _per_op_enter(self, fn: str, args: tuple) -> None:
        """Per-operation rearm inside one batched crossing.

        Most backends switch domains once per batch and need nothing
        here; the CHERI gate overrides it to install each operation's
        capability delegations on the already-derived context.
        """

    # --- crossing-plan fast path --------------------------------------------

    def _plan_ctx_label(self, fn: str) -> str:
        """The context label the slow-path ``_enter`` builds for ``fn``.

        Precomputed once per export at plan compile time so the fast
        path never formats strings per call; backends override to match
        their own f-string exactly.
        """
        return f"{self.callee_lib.NAME}.{fn}"

    def _enter_fast(self, entry: _PlanEntry, args: tuple, cpu) -> None:
        """Plan-specialized domain entry; defaults to the slow hook so
        subclasses without a specialization stay correct."""
        self._enter(entry.fn, args)

    def _exit_fast(self, entry: _PlanEntry, cpu) -> None:
        self._exit()

    def _per_op_enter_fast(self, entry: _PlanEntry, args: tuple, cpu) -> None:
        self._per_op_enter(entry.fn, args)

    def _plan_prologue(self, fn: str):
        """Caller side of every plan-path crossing; returns the CPU.

        The plan hit, then the call charge and call monitors, the
        failed-compartment check and the crossing counters — the same
        charges and counter writes, in the same order, as the
        interpreted bodies' ``_caller_side``/``_check_available``/
        ``_record_crossing`` sequence.
        """
        self._plan.hits += 1
        cpu = self.machine.cpu
        profile = cpu._contexts[-1].profile
        cpu.charge(self._call_ns + profile.call_extra_ns)
        monitors = profile.call_monitors
        if monitors:
            for monitor in monitors:
                monitor(self._caller_name, self._callee_name, fn)
        if self._is_boundary:
            comp = self.callee_lib.compartment
            if comp is not None and comp.failed:
                # Restart may rebuild compartment state the pooled
                # context caches — drop the pool before reviving.
                self._ctx_pool = None
                self._check_available()
        self.crossings += 1
        self._edge.crossings += 1
        counters = self._counters
        for name in self._bump_names:
            counters[name] = counters.get(name, 0.0) + 1.0
        return cpu

    def _invoke_fast(self, entry: _PlanEntry, args: tuple) -> Any:
        """Hot invoke: identical charge/bump sequence, zero derivation.

        Mirrors the interpreted body of :meth:`invoke` (everything after
        its plan check) line for line — every ``charge`` has the same
        value (precomputed from the same constants with the same
        associativity) and every counter write the same order.  The
        only skipped work is host-side: lookups, f-strings, and
        observer probes the plan already resolved (``observing`` False
        guarantees the tracer and latency recorder are off).
        """
        cpu = self._plan_prologue(entry.fn)
        self._enter_fast(entry, args, cpu)
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, entry.fn)
            return entry.handler(*args)
        except CONTAINABLE_FAULTS as exc:
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        finally:
            self._exit_fast(entry, cpu)

    def _invoke_batch_fast(
        self, entries: list, ops: list[tuple[int, str, tuple]]
    ) -> list[Completion]:
        """Plan path of :meth:`invoke_batch`; mirrors its interpreted body."""
        cpu = self._plan_prologue(ops[0][1])
        machine = self.machine
        completions: list[Completion] = []
        self._enter_fast(entries[0], (len(ops),), cpu)
        try:
            failure: BaseException | None = None
            for (ticket, fn, args), entry in zip(ops, entries):
                if failure is not None:
                    completions.append(Completion(ticket, fn, error=failure))
                    continue
                try:
                    self._per_op_enter_fast(entry, args, cpu)
                    if machine.injector is not None:
                        machine.injector.on_crossing(self, fn)
                    completions.append(
                        Completion(ticket, fn, value=entry.handler(*args))
                    )
                except CONTAINABLE_FAULTS as exc:
                    failure = self._contain(exc)
                    if failure is None:
                        raise
                    completions.append(Completion(ticket, fn, error=failure))
                except Exception as exc:
                    completions.append(Completion(ticket, fn, error=exc))
        finally:
            self._exit_fast(entries[0], cpu)
        return completions

    def _invoke_gen_fast(self, entry: _PlanEntry, args: tuple) -> Generator:
        """Plan path of :meth:`invoke_gen`; mirrors
        :meth:`_invoke_gen_interpreted` exit for exit.

        The crossing may suspend, and other threads may cross this gate
        meanwhile: ``_enter_fast`` took the pooled context (clearing
        the pool), so they build their own, and ``_exit_fast`` hands a
        context back only into an empty pool.  No span or latency
        sample is closed on exit: none was opened, even if an observer
        came on while the thread was parked.
        """
        cpu = self._plan_prologue(entry.fn)
        self._enter_fast(entry, args, cpu)
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, entry.fn)
            result = yield from entry.handler(*args)
        except GeneratorExit:
            # A killed thread's context stack is discarded with it.
            raise
        except CONTAINABLE_FAULTS as exc:
            self._exit_fast(entry, cpu)
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        except BaseException:
            self._exit_fast(entry, cpu)
            raise
        self._exit_fast(entry, cpu)
        return result

    # --- channel interface ---------------------------------------------------------

    def invoke_batch(
        self, ops: list[tuple[int, str, tuple]]
    ) -> list[Completion]:
        """Execute many queued operations under ONE crossing (doorbell).

        ``ops`` is ``[(ticket, fn, args), ...]``.  The gate pays one
        caller-side charge, one crossing record, and one enter/exit
        domain switch for the whole batch; each op then dispatches
        inside the callee's domain.  Crash-mid-batch semantics: an op
        failing with a containable fault gets the translated
        :class:`CompartmentFailure` in its completion, every *later* op
        in the batch is aborted with the same failure (the callee
        domain is gone), and ops that completed before it keep their
        results — exactly the state N sync calls would have left behind
        at the point of the crash.  Under the ``propagate`` policy the
        raw fault is raised instead (whole-image crash, as sync invoke
        would).  Ordinary (non-fault) exceptions fail only their own
        op, as N separate sync calls would.
        """
        if not ops:
            return []
        plan = self._plan
        if plan is not None:
            epoch = self._obs.epoch
            if plan.epoch != epoch:
                plan.refresh(epoch)
            if not plan.observing:
                get = plan.entries.get
                entries = []
                for _, fn, _ in ops:
                    entry = get(fn)
                    if entry is None or entry.blocking:
                        entries = None
                        break
                    entries.append(entry)
                if entries is not None:
                    return self._invoke_batch_fast(entries, ops)
        handlers = [self._lookup(fn, blocking=False) for _, fn, _ in ops]
        self._caller_side(ops[0][1])
        self._check_available()
        self._record_crossing()
        started = self._latency_start()
        traced = self._trace_begin(f"batch[{len(ops)}]")
        completions: list[Completion] = []
        # The doorbell payload is one word: the ring tail index.
        self._enter(ops[0][1], (len(ops),))
        try:
            failure: BaseException | None = None
            for (ticket, fn, args), handler in zip(ops, handlers):
                if failure is not None:
                    completions.append(Completion(ticket, fn, error=failure))
                    continue
                try:
                    self._per_op_enter(fn, args)
                    self._inject(fn)
                    completions.append(
                        Completion(ticket, fn, value=handler(*args))
                    )
                except CONTAINABLE_FAULTS as exc:
                    failure = self._contain(exc)
                    if failure is None:
                        raise
                    completions.append(Completion(ticket, fn, error=failure))
                except Exception as exc:
                    completions.append(Completion(ticket, fn, error=exc))
        finally:
            self._exit()
            self._latency_end(started)
            if traced is not None:
                self._tracer.end()
        return completions

    def invoke(self, fn: str, args: tuple) -> Any:
        plan = self._plan
        if plan is not None:
            epoch = self._obs.epoch
            if plan.epoch != epoch:
                plan.refresh(epoch)
            if not plan.observing:
                entry = plan.entries.get(fn)
                if entry is not None and not entry.blocking:
                    return self._invoke_fast(entry, args)
        handler = self._lookup(fn, blocking=False)
        self._caller_side(fn)
        self._check_available()
        self._record_crossing()
        started = self._latency_start()
        traced = self._trace_begin(fn)
        self._enter(fn, args)
        try:
            self._inject(fn)
            return handler(*args)
        except CONTAINABLE_FAULTS as exc:
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        finally:
            self._exit()
            self._latency_end(started)
            if traced is not None:
                self._tracer.end()

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        """Blocking crossing: returns a generator to drive with ``yield from``.

        The path is chosen here, by the same plan check as
        :meth:`invoke`; callers drive the generator at once.  Every
        error — an unknown or non-blocking export, a failed callee —
        surfaces at its first ``next()``, on either path.
        """
        plan = self._plan
        if plan is not None:
            epoch = self._obs.epoch
            if plan.epoch != epoch:
                plan.refresh(epoch)
            if not plan.observing:
                entry = plan.entries.get(fn)
                if entry is not None and entry.blocking:
                    return self._invoke_gen_fast(entry, args)
        return self._invoke_gen_interpreted(fn, args)

    def _invoke_gen_interpreted(self, fn: str, args: tuple) -> Generator:
        handler = self._lookup(fn, blocking=True)
        self._caller_side(fn)
        self._check_available()
        self._record_crossing()
        started = self._latency_start()
        traced = self._trace_begin(fn)
        self._enter(fn, args)
        try:
            self._inject(fn)
            result = yield from handler(*args)
        except GeneratorExit:
            # The thread was destroyed while parked inside the callee:
            # its entire saved protection-context stack (including the
            # context this gate pushed) is discarded with it, so there
            # is nothing to restore on the live CPU — but the trace
            # span must still be closed on the track it was opened on,
            # or exports carry a dangling span for the dead thread.
            if traced is not None:
                self._tracer.end(track=traced)
            raise
        except CONTAINABLE_FAULTS as exc:
            self._exit()
            if traced is not None:
                self._tracer.end()
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        except BaseException:
            self._exit()
            if traced is not None:
                self._tracer.end()
            raise
        self._exit()
        # Blocking crossings include time spent suspended inside the
        # callee; only completed crossings are sampled (a thread
        # destroyed mid-call or an unwinding fault records nothing).
        self._latency_end(started)
        if traced is not None:
            self._tracer.end()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.caller_lib.NAME}->"
            f"{self.callee_lib.NAME}>"
        )
