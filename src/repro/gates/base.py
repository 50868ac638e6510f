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
from repro.machine.cpu import Context
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
    """One export's precompiled crossing state (see :class:`Gate`).

    ``extra`` is backend payload — e.g. the CHERI gate stashes the
    export's ``CAP_GRANTS`` specs so no crossing re-reads the class
    dict.
    """

    __slots__ = ("fn", "handler", "blocking", "ctx_label", "extra")

    def __init__(self, fn, handler, blocking, ctx_label):
        self.fn = fn
        self.handler = handler
        self.blocking = blocking
        self.ctx_label = ctx_label
        self.extra = None


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

    Each gate compiles a crossing plan at construction: one
    :class:`_PlanEntry` per export (resolved handler, blocking flag,
    the callee context's label) plus the cost-model sums its backend
    charges, so a crossing does no lookups or string formatting.
    ``invoke``, ``invoke_batch`` and ``invoke_gen`` each have one body,
    in this order: misuse check, prologue (call charge, call monitors,
    failed-callee check, crossing counters), observers sampled once at
    entry, ``_enter``, handler, ``_exit``, observers closed.
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
        self.callee_comp: "Compartment | None" = callee_lib.compartment
        self.options = options if options is not None else GateOptions()
        self.crossings = 0
        self._metrics = machine.cpu.metrics
        self._edge = self._metrics.edge(
            caller_lib.NAME, callee_lib.NAME, self.KIND
        )
        self._tracer = machine.obs.tracer
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
        blocking = callee_lib.blocking_exports
        self._plan = {
            fn: _PlanEntry(fn, handler, fn in blocking, self._plan_ctx_label(fn))
            for fn, handler in callee_lib.exports.items()
        }
        #: Whether any observer (the tracer, per-edge latency recording)
        #: is live, re-resolved only when the machine's observability
        #: epoch moves: one int compare per crossing.
        self._observing = False
        self._obs_epoch = -1
        #: Host-side telemetry: how often ``_observing`` was re-resolved.
        self.plan_refreshes = 0
        #: Pooled callee Context: ``_enter`` takes it (building a fresh
        #: one while another crossing holds it) and ``_exit`` hands a
        #: context back only into an empty pool.
        self._ctx_pool = None
        machine.gates.append(self)

    # --- plan helpers ---------------------------------------------------------

    def _plan_ctx_label(self, fn: str) -> str:
        """The label of the callee context a crossing into ``fn`` pushes."""
        return f"{self.callee_lib.NAME}.{fn}"

    def _lookup(self, fn: str, blocking: bool) -> _PlanEntry:
        """Entry-point enforcement: only exports are callable."""
        entry = self._plan.get(fn)
        if entry is not None and entry.blocking == blocking:
            return entry
        callee = self.callee_lib
        if entry is None:
            raise GateError(
                f"{callee.NAME} has no export {fn!r} "
                f"(called from {self.caller_lib.NAME})"
            )
        if blocking:
            raise GateError(f"{callee.NAME}.{fn} is not a blocking export")
        raise GateError(
            f"{callee.NAME}.{fn} is blocking; use call_gen / yield from"
        )

    def _prologue(self, fn: str):
        """Caller side of every crossing; returns the CPU.

        Charges the call plus the caller profile's per-call
        instrumentation, runs its call monitors, fails fast (or
        revives) a failed callee, then counts the crossing.
        """
        cpu = self.machine.cpu
        profile = cpu._contexts[-1].profile
        cpu.charge(self._call_ns + profile.call_extra_ns)
        monitors = profile.call_monitors
        if monitors:
            for monitor in monitors:
                monitor(self._caller_name, self._callee_name, fn)
        if self._is_boundary:
            comp = self.callee_comp
            if comp is not None and comp.failed:
                self._check_available(comp, cpu)
        self.crossings += 1
        self._edge.crossings += 1
        counters = self._counters
        for name in self._bump_names:
            counters[name] = counters.get(name, 0.0) + 1.0
        return cpu

    def _push_context(self, entry: _PlanEntry, cpu, pkru: int, capabilities):
        """Push the callee's context for ``entry``, pooled when free."""
        ctx = self._ctx_pool
        if ctx is None:
            comp = self.callee_comp
            ctx = Context(
                address_space=comp.address_space,
                pkru=pkru,
                profile=comp.profile,
                label=entry.ctx_label,
                capabilities=capabilities,
            )
        else:
            self._ctx_pool = None
            ctx.label = entry.ctx_label
            ctx.pkru = pkru
            ctx.capabilities = capabilities
        cpu.push_context(ctx)
        return ctx

    def _pop_context(self, cpu) -> None:
        """Pop the callee's context; it refills the pool if empty."""
        ctx = cpu.pop_context()
        if self._ctx_pool is None:
            self._ctx_pool = ctx

    # --- observers --------------------------------------------------------------

    def _refresh(self) -> None:
        """Re-resolve observer enablement after an obs-epoch bump."""
        self._observing = self._is_boundary and (
            self._tracer._enabled or self._metrics._record_edge_latency
        )
        self._obs_epoch = self._obs.epoch
        self.plan_refreshes += 1

    def _observe(self, fn: str) -> tuple[float | None, int | None]:
        """Sample the observers at crossing entry.

        Returns ``(latency start, trace track)``, each None when that
        observer is off.  The span rides the calling thread's track, so
        a blocking call that suspends keeps its span open across the
        suspension and closes it after resume; the track is kept so a
        thread destroyed while parked inside the call can still close
        it.  Reading the clock charges nothing, so observing is
        invisible to the simulation.
        """
        started = None
        if self._metrics._record_edge_latency:
            started = self.machine.cpu.clock_ns
        tracer = self._tracer
        if not tracer._enabled:
            return started, None
        tracer.begin(
            f"{self._caller_name}->{self._callee_name}.{fn}",
            "gate",
            kind=self.KIND,
        )
        return started, tracer.current_track

    def _close(self, entry, cpu, observed, sample: bool) -> None:
        """``_exit``, then close what entry observed (if anything).

        The span closes even when the exit itself fails (a lost VM-RPC
        return notification), so the next crossing's span is a sibling
        and not a child.  The latency sample is taken only after a
        clean exit, and only when ``sample`` asks for it.  Hot paths
        call ``_exit`` directly when nothing was observed.
        """
        if observed is None:
            self._exit(entry, cpu)
            return
        started, traced = observed
        try:
            self._exit(entry, cpu)
            if sample and started is not None:
                self._metrics.edge_latency(
                    self._caller_name, self._callee_name
                ).observe(cpu.clock_ns - started)
        finally:
            if traced is not None:
                self._tracer.end()

    # --- fault containment ---------------------------------------------------

    def _check_available(self, comp: "Compartment", cpu) -> None:
        """Fail fast — or restart — a crossing into a failed compartment."""
        # Restart may rebuild compartment state the pooled context
        # caches — drop the pool before reviving.
        self._ctx_pool = None
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
        comp: "Compartment | None" = self.callee_comp
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

    # --- domain switch hooks (overridden by real gates) ---------------------------

    def _enter(self, entry: _PlanEntry, args: tuple, cpu) -> None:
        """Perform/charge the switch into the callee's domain."""

    def _exit(self, entry: _PlanEntry, cpu) -> None:
        """Perform/charge the switch back into the caller's domain."""

    def _per_op_enter(self, entry: _PlanEntry, args: tuple, cpu) -> None:
        """Per-operation rearm inside one batched crossing.

        Most backends switch domains once per batch and need nothing
        here; the CHERI gate overrides it to install each operation's
        capability delegations on the already-derived context.
        """

    # --- channel interface ---------------------------------------------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        entry = self._plan.get(fn)
        if entry is None or entry.blocking:
            self._lookup(fn, blocking=False)  # raises GateError
        cpu = self._prologue(fn)
        if self._obs_epoch != self._obs.epoch:
            self._refresh()
        observed = self._observe(fn) if self._observing else None
        self._enter(entry, args, cpu)
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, fn)
            return entry.handler(*args)
        except CONTAINABLE_FAULTS as exc:
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        finally:
            if observed is None:
                self._exit(entry, cpu)
            else:
                self._close(entry, cpu, observed, True)

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
        entries = [self._lookup(fn, blocking=False) for _, fn, _ in ops]
        cpu = self._prologue(ops[0][1])
        if self._obs_epoch != self._obs.epoch:
            self._refresh()
        observed = self._observe(f"batch[{len(ops)}]") if self._observing else None
        machine = self.machine
        completions: list[Completion] = []
        # The doorbell payload is one word: the ring tail index.
        self._enter(entries[0], (len(ops),), cpu)
        try:
            failure: BaseException | None = None
            for (ticket, fn, args), entry in zip(ops, entries):
                if failure is not None:
                    completions.append(Completion(ticket, fn, error=failure))
                    continue
                try:
                    self._per_op_enter(entry, args, cpu)
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
            if observed is None:
                self._exit(entries[0], cpu)
            else:
                self._close(entries[0], cpu, observed, True)
        return completions

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        """Blocking crossing: a generator to drive with ``yield from``.

        Everything runs from the first ``next()``, so every error — an
        unknown or non-blocking export, a failed callee — surfaces
        there.  The crossing may suspend, and other threads may cross
        this gate meanwhile (see ``_ctx_pool``).  Observers are sampled
        once, at entry: a crossing that parks while an observer comes
        on closes no span.  Only completed crossings take a latency
        sample — blocking ones include the time spent suspended inside
        the callee — so a thread destroyed mid-call or an unwinding
        fault records nothing.
        """
        entry = self._plan.get(fn)
        if entry is None or not entry.blocking:
            self._lookup(fn, blocking=True)  # raises GateError
        cpu = self._prologue(fn)
        if self._obs_epoch != self._obs.epoch:
            self._refresh()
        observed = self._observe(fn) if self._observing else None
        self._enter(entry, args, cpu)
        try:
            injector = self.machine.injector
            if injector is not None:
                injector.on_crossing(self, fn)
            result = yield from entry.handler(*args)
        except GeneratorExit:
            # The thread was destroyed while parked inside the callee:
            # its entire saved protection-context stack (including the
            # context this gate pushed) is discarded with it, so there
            # is nothing to restore on the live CPU — but the trace
            # span must still be closed on the track it was opened on,
            # or exports carry a dangling span for the dead thread.
            if observed is not None and observed[1] is not None:
                self._tracer.end(track=observed[1])
            raise
        except CONTAINABLE_FAULTS as exc:
            self._close(entry, cpu, observed, False)
            failure = self._contain(exc)
            if failure is None:
                raise
            raise failure from exc
        except BaseException:
            self._close(entry, cpu, observed, False)
            raise
        if observed is None:
            self._exit(entry, cpu)
        else:
            self._close(entry, cpu, observed, True)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.caller_lib.NAME}->"
            f"{self.callee_lib.NAME}>"
        )
