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

Gate crossings are compiled, the way FlexOS's toolchain replaces each
gate placeholder with backend-specific code when it builds the image:
every backend states its domain switch as source fragments, and a
gate turns the crossing templates below plus those fragments into one
Python function per export, the first time the export is crossed.

Construct channels through :func:`repro.gates.registry.make_channel`;
direct gate instantiation raises :class:`GateError`.
"""

from __future__ import annotations

import dataclasses
import linecache
import re
import textwrap
import threading
from typing import TYPE_CHECKING, Any, Callable, Generator

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
    #: Wrap boundary channels in API guards (paper §5 precondition +
    #: pointer checks).  Applied by :func:`make_channel`; guards are
    #: never generated for same-compartment direct channels.
    api_guards: bool = False
    #: (start, end) ranges pointer arguments may legitimately reference
    #: besides the caller's own memory (the shared heap); consulted by
    #: the API guards.
    shared_ranges: tuple[tuple[int, int], ...] = ()
    #: Queue channels only: submission/completion ring capacity
    #: (entries).  A full ring forces a flush.
    queue_depth: int = 64
    #: Queue channels only: auto-flush (ring the doorbell) once this
    #: many submissions are pending.
    queue_batch: int = 8


#: Bytes charged for copying one argument or return value across a
#: boundary that copies (the switched-stack and VM-RPC crossings).
WORD_BYTES = 8


#: Set while :func:`repro.gates.registry.make_channel` constructs a
#: gate; direct instantiation outside the factory raises GateError.
#: Thread-local, so a factory call on one thread never admits a direct
#: instantiation on another.
_FACTORY = threading.local()


def _require_factory(cls: type) -> None:
    """The factory guard: channels exist only via make_channel."""
    if not getattr(_FACTORY, "active", False):
        raise GateError(
            f"direct instantiation of {cls.__name__} is not supported; "
            "construct channels via repro.gates.make_channel(kind, ...)"
        )


class _PlanEntry:
    """One export's static facts: what its compiled crossing binds and
    what the misuse checks read.

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


# --- compiled crossings ---------------------------------------------------------
#
# A gate crossing is compiled, per export, into one Python function from
# a template below and its backend's ENTER/EXIT fragments (see
# :class:`Gate`).  In templates and fragments, a line holding only a
# macro name — ``NAME`` or ``NAME(arg)`` — expands, at that line's
# indentation, into the macro's source (``{0}`` standing for ``arg``),
# itself expanded in turn.  ``CHARGE`` is ``CPU.charge`` inlined step
# for step, and the pooled push and pop are ``push_context`` and
# ``pop_context``.
_MACROS = {
    "CHARGE": """
        cpu._clock_ns += {0}
        if cpu.attribute_time:
            cpu._attribute({0})
    """,
    # Push the callee's context for this crossing — the gate's pooled
    # one, or a fresh one while another crossing (parked inside the
    # callee) holds it — carrying the fragment's locals ``pkru`` and
    # ``capabilities``.
    "PUSH_POOLED": """
        ctx = gate._ctx_pool
        if ctx is None:
            ctx = Context(
                address_space=comp.address_space,
                pkru=pkru,
                profile=comp.profile,
                label=label,
                capabilities=capabilities,
            )
        else:
            gate._ctx_pool = None
            ctx.label = label
            ctx.pkru = pkru
            ctx.capabilities = capabilities
        cpu._contexts.append(ctx)
    """,
    # Pop the callee's context; it refills the pool only if empty.
    "POP_POOLED": """
        if not cpu._contexts:
            raise RuntimeError("context stack underflow")
        ctx = cpu._contexts.pop()
        if gate._ctx_pool is None:
            gate._ctx_pool = ctx
    """,
    # The caller side of every single crossing: the call charge plus
    # the caller profile's per-call instrumentation, its call monitors
    # (CFI target checks), then the gate's COUNT.
    "PROLOGUE": """
        profile = cpu._contexts[-1].profile
        CHARGE(call_ns + profile.call_extra_ns)
        monitors = profile.call_monitors
        if monitors:
            for monitor in monitors:
                monitor(caller_name, callee_name, fn)
        COUNT
    """,
    # The backend's EXIT, then close what entry observed.  The span
    # closes even when the exit itself fails (a lost VM-RPC return
    # notification), so the next crossing's span is a sibling and not a
    # child.  The latency sample is taken when the argument is true:
    # ``exited`` (set only by a clean exit) for plain and batched
    # crossings and returning blocking ones, ``False`` for a blocking
    # crossing that unwinds.
    "LEAVE": """
        exited = False
        try:
            EXIT
            exited = True
        finally:
            if observed is not None:
                gate._close(observed, {0})
    """,
}

#: A plain export: the handler runs between ENTER and EXIT.  A
#: containable fault is translated (``_contain``) before the exit runs.
_PLAIN = """
def crossing(args):
    PROLOGUE
    observed = gate._observe(fn) if gate._observing else None
    ENTER
    try:
        injector = machine.injector
        if injector is not None:
            injector.on_crossing(gate, fn)
        return handler(*args)
    except CONTAINABLE_FAULTS as exc:
        failure = gate._contain(exc)
        if failure is None:
            raise
        raise failure from exc
    finally:
        LEAVE(exited)
"""

#: A blocking export: a generator function, so everything — the
#: prologue included — runs from the first ``next()``.  The exit runs
#: before ``_contain`` on a containable fault, and not at all on
#: ``GeneratorExit``: a thread destroyed while parked inside the callee
#: discards its whole saved context stack (this crossing's context
#: included), so only its span is closed, on the track it was opened on.
_BLOCKING = """
def crossing(args):
    PROLOGUE
    observed = gate._observe(fn) if gate._observing else None
    ENTER
    try:
        injector = machine.injector
        if injector is not None:
            injector.on_crossing(gate, fn)
        result = yield from handler(*args)
    except GeneratorExit:
        if observed is not None and observed[1] is not None:
            tracer.end(track=observed[1])
        raise
    except CONTAINABLE_FAULTS as exc:
        LEAVE(False)
        failure = gate._contain(exc)
        if failure is None:
            raise
        raise failure from exc
    except BaseException:
        LEAVE(False)
        raise
    LEAVE(exited)
    return result
"""

#: Many queued operations under one crossing (the doorbell): one call
#: charge, one crossing record and one ENTER/EXIT for the batch, which
#: enters with the first op's context label and a one-word payload
#: (the ring tail index).  The call monitors ran for every op at
#: submission (``Gate.admit``).
_BATCH = """
def crossing(ops, entries):
    profile = cpu._contexts[-1].profile
    CHARGE(call_ns + profile.call_extra_ns)
    COUNT
    observed = gate._observe(f"batch[{len(ops)}]") if gate._observing else None
    entry = entries[0]
    label = entry.ctx_label
    args = (len(ops),)
    ENTER
    completions = []
    try:
        failure = None
        for (ticket, fn, args), entry in zip(ops, entries):
            if failure is not None:
                completions.append(Completion(ticket, fn, error=failure))
                continue
            try:
                PER_OP_ENTER
                injector = machine.injector
                if injector is not None:
                    injector.on_crossing(gate, fn)
                completions.append(
                    Completion(ticket, fn, value=entry.handler(*args))
                )
            except CONTAINABLE_FAULTS as exc:
                failure = gate._contain(exc)
                if failure is None:
                    raise
                completions.append(Completion(ticket, fn, error=failure))
            except Exception as exc:
                completions.append(Completion(ticket, fn, error=exc))
    finally:
        LEAVE(exited)
    return completions
"""

_TEMPLATES = {"plain": _PLAIN, "blocking": _BLOCKING, "batch": _BATCH}

_MACRO_LINE = re.compile(r"^( *)([A-Z][A-Z_]*)(?:\((.*)\))?$")


def _expand(source: str, macros: dict[str, str]) -> list[str]:
    """Expand every macro line of ``source``; returns the lines."""
    lines: list[str] = []
    for line in textwrap.dedent(source).strip("\n").splitlines():
        match = _MACRO_LINE.match(line)
        if match is None or match[2] not in macros:
            lines.append(line)
            continue
        pad, name, arg = match.groups()
        text = macros[name] if arg is None else macros[name].format(arg)
        lines.extend(pad + inner for inner in _expand(text, macros) if inner)
    return lines


#: (gate class, template name) -> factory compiled from their source;
#: a pure cache, since the source depends on nothing else.
_FACTORIES: dict[tuple[type, str], Callable] = {}


def _factory(cls: type, kind: str, names: tuple[str, ...]) -> Callable:
    """The compiled ``make(*names) -> crossing`` for a gate class.

    Rendered and compiled once per class and template; every crossing
    of that kind is a closure over one call's bound values.  The source
    is registered with :mod:`linecache` under a pseudo file name, so
    tracebacks through a crossing show its lines.
    """
    factory = _FACTORIES.get((cls, kind))
    if factory is not None:
        return factory
    macros = {
        **_MACROS,
        "COUNT": cls._count_source(),
        "ENTER": cls.ENTER,
        "EXIT": cls.EXIT,
        "PER_OP_ENTER": cls.PER_OP_ENTER,
    }
    body = "".join(f"    {line}\n" for line in _expand(_TEMPLATES[kind], macros))
    source = f"def make({', '.join(names)}):\n{body}    return crossing\n"
    filename = f"<{cls.__name__} {kind} crossing>"
    lines = source.splitlines(True)
    linecache.cache[filename] = (len(source), None, lines, filename)
    namespace = {
        # The crossings' ``__module__``: a profiler charges their time
        # to the gate's package, not to whoever called them.
        "__name__": cls.__module__,
        "CONTAINABLE_FAULTS": CONTAINABLE_FAULTS,
        "Completion": Completion,
        "Context": Context,
    }
    exec(compile(source, filename, "exec"), namespace)
    factory = _FACTORIES[(cls, kind)] = namespace["make"]
    return factory


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
    :meth:`submit` / :meth:`poll` / :meth:`flush` plus the
    :meth:`capabilities` query.  The async defaults here degrade to
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

    def wait_completions(self, min_count: int = 1) -> Generator:
        """Flush until ``min_count`` completions are ready, then drain
        and return them; drive with ``yield from``.

        Never suspends: on sync channels completions are ready at
        submit time, and a queue channel flushes on the waiter's
        behalf.
        """
        while self.completions_ready < min_count:
            if not self.pending:
                raise GateError(
                    f"waiting for {min_count} completion(s) but only "
                    f"{self.completions_ready} submitted and none pending"
                )
            self.flush()
        return self.poll(min_count)
        yield  # pragma: no cover - returned above; a generator for ``yield from``

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

    Crossing accounting is unified here: a crossing increments one int,
    the gate's own ``crossings``, and an MPK exit increments
    ``exits``.  The gate is a counter source of the metrics registry
    (:meth:`derive_counters`): reading the counters derives from those
    two ints every name the backend declares (``ENTRY_COUNTERS``,
    ``EXIT_COUNTERS``) — ``gate_crossings`` for every compartment
    boundary, the backend's own count, WRPKRUs and stack switches —
    and the caller→callee edge sums the crossings of its gates.

    **Link time.**  A gate does no per-export work when it is built: an
    export's plan entry (handler, kind, context label, backend payload)
    is made the first time the export is looked up, and kept.

    **Compiled crossings.**  When an export is first crossed, its gate
    compiles one callable for it — a plain function, or a generator
    function for a blocking export — from the crossing templates in
    this module and its backend's ``ENTER``/``EXIT`` source fragments,
    with the handler, callee compartment, context label and cost
    constants bound as closure cells;
    the first batch compiles the gate's one batch crossing.
    ``invoke`` and ``invoke_gen`` are one dict probe plus a call.  The
    compiled body runs, in one frame and in this order: prologue (call
    charge, call monitors, failed-callee fail-fast or revival, crossing
    count), observers sampled once at entry, enter, handler, exit,
    observers closed.  What may change between crossings — the
    compartment's PKRU, failure state and profile, the context pool,
    the injector, the observers, time attribution — is read through
    its object on every crossing, never bound by value.
    """

    #: True for channels that cross a compartment boundary; only the
    #: same-compartment DirectChannel clears it.  Boundary channels
    #: count toward ``gate_crossings``, get trace spans, and act as
    #: containment boundaries for the fault model.
    IS_BOUNDARY = True
    #: The counters this backend's crossings feed: each entry adds one
    #: to every name in ``ENTRY_COUNTERS``, each exit counted in the
    #: ``EXIT`` fragment (``gate.exits += 1``) one to every name in
    #: ``EXIT_COUNTERS``.  Derived on read, never written per crossing.
    ENTRY_COUNTERS: tuple[str, ...] = ("gate_crossings",)
    EXIT_COUNTERS: tuple[str, ...] = ()
    #: The backend's domain switch into the callee and back, as source
    #: the compiled crossings inline (see the macros above).  Fragments
    #: see the names ``_bindings`` returns, the crossing's ``entry``,
    #: ``label`` and ``args``, and ``Context``; ``ENTER`` leaves the
    #: pushed context, if any, in ``ctx`` for ``EXIT``.
    ENTER = ""
    EXIT = ""
    #: Per-operation rearm inside one batched crossing.  Most backends
    #: switch domains once per batch and need nothing here; the CHERI
    #: gate installs each operation's capability delegations.
    PER_OP_ENTER = ""

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
        #: Crossings entered (the COUNT macro) and, for backends whose
        #: ``EXIT`` counts them, exits.
        self.crossings = 0
        self.exits = 0
        self._metrics = machine.cpu.metrics
        self._metrics.add_source(self)
        self._tracer = machine.obs.tracer
        self._obs = machine.obs
        self._caller_name = caller_lib.NAME
        self._callee_name = callee_lib.NAME
        self._edge = None
        self._attach_edge(self.KIND)
        #: Plan entries by export, each made on the export's first
        #: lookup (:meth:`_plan_entry`).
        self._plan: dict[str, _PlanEntry] = {}
        #: Compiled crossings by export: plain, blocking, and the one
        #: batch (doorbell) crossing.
        self._calls: dict[str, Callable] = {}
        self._gen_calls: dict[str, Callable] = {}
        self._batch_call: Callable | None = None
        #: Whether any observer (the tracer, per-edge latency recording)
        #: is live, re-resolved only when the machine's observability
        #: epoch moves: one int compare per crossing.
        self._observing = False
        self._obs_epoch = -1
        #: Host-side telemetry: how often ``_observing`` was re-resolved.
        self.plan_refreshes = 0
        #: Pooled callee Context: a crossing's enter takes it (building
        #: a fresh one while another crossing holds it) and its exit
        #: hands a context back only into an empty pool.
        self._ctx_pool = None
        machine.gates.append(self)

    # --- accounting ---------------------------------------------------------------

    def _attach_edge(self, kind: str) -> None:
        """Sum this gate's crossings into its caller→callee edge of ``kind``."""
        if self._edge is not None:
            self._edge.gates.remove(self)
        self._edge = self._metrics.edge(self._caller_name, self._callee_name, kind)
        self._edge.gates.append(self)

    def derive_counters(self, view: dict[str, float]) -> None:
        """Add the names this gate's entries and exits feed to a
        registry read view."""
        for count, names in (
            (self.crossings, self.ENTRY_COUNTERS),
            (self.exits, self.EXIT_COUNTERS),
        ):
            if count:
                for name in names:
                    view[name] = view.get(name, 0.0) + count

    def zero_counters(self) -> None:
        self.crossings = self.exits = 0

    # --- compilation ----------------------------------------------------------

    def _plan_ctx_label(self, fn: str) -> str:
        """The label of the callee context a crossing into ``fn`` pushes."""
        return f"{self.callee_lib.NAME}.{fn}"

    @classmethod
    def _count_source(cls) -> str:
        """``COUNT``: fail fast (or revive) a failed callee, count the
        crossing, and re-resolve the observers on an epoch bump."""
        lines = []
        if cls.IS_BOUNDARY:
            lines += [
                "if comp is not None and comp.failed:",
                "    gate._check_available(comp, cpu)",
            ]
        lines += [
            "gate.crossings += 1",
            "if gate._obs_epoch != obs.epoch:",
            "    gate._refresh()",
        ]
        return "\n".join(lines)

    def _bindings(self) -> dict[str, Any]:
        """The per-gate values a compiled crossing binds.

        Backends add their cost constants; every gate of one class must
        return the same names in the same order.
        """
        machine = self.machine
        return {
            "gate": self,
            "machine": machine,
            "cpu": machine.cpu,
            "obs": self._obs,
            "tracer": self._tracer,
            "comp": self.callee_comp,
            "caller_name": self._caller_name,
            "callee_name": self._callee_name,
            "call_ns": machine.cost.call_ns,
            "ret_ns": machine.cost.ret_ns,
        }

    def _compile(self, entry: _PlanEntry) -> Callable:
        """Compile (and keep) the crossing into one export."""
        bindings = self._bindings()
        bindings.update(
            entry=entry, fn=entry.fn, handler=entry.handler, label=entry.ctx_label
        )
        kind = "blocking" if entry.blocking else "plain"
        crossing = _factory(type(self), kind, tuple(bindings))(**bindings)
        (self._gen_calls if entry.blocking else self._calls)[entry.fn] = crossing
        return crossing

    def _plan_entry(self, fn: str) -> _PlanEntry:
        """Make and keep the plan entry of ``fn``, at its first lookup;
        a name that is not an export raises GateError."""
        callee = self.callee_lib
        handler = callee.exports.get(fn)
        if handler is None:
            raise GateError(
                f"{callee.NAME} has no export {fn!r} "
                f"(called from {self.caller_lib.NAME})"
            )
        entry = self._plan[fn] = _PlanEntry(
            fn, handler, fn in callee.blocking_exports, self._plan_ctx_label(fn)
        )
        return entry

    def _lookup(self, fn: str, blocking: bool) -> _PlanEntry:
        """Entry-point enforcement: only exports are callable."""
        entry = self._plan.get(fn)
        if entry is None:
            entry = self._plan_entry(fn)
        if entry.blocking == blocking:
            return entry
        callee = self.callee_lib
        if blocking:
            raise GateError(f"{callee.NAME}.{fn} is not a blocking export")
        raise GateError(
            f"{callee.NAME}.{fn} is blocking; use call_gen / yield from"
        )

    def _misused(self, fn: str) -> Generator:
        """``invoke_gen`` of a non-blocking or unknown export: raises
        the same GateError as ``_lookup`` at the first ``next()``."""
        self._lookup(fn, blocking=True)
        yield  # pragma: no cover - _lookup raised

    def admit(self, fn: str) -> None:
        """Submission-time checks for one operation of a batch.

        Entry-point enforcement, then the caller profile's call
        monitors (CFI target checks, SH-inference observation) — once
        per operation, in submission order, in the caller's context.
        A violation is the caller's: the operation is never queued, so
        its target never runs and the callee is not marked failed.
        """
        self._lookup(fn, blocking=False)
        for monitor in self.machine.cpu.current.profile.call_monitors:
            monitor(self._caller_name, self._callee_name, fn)

    # --- observers --------------------------------------------------------------

    def _refresh(self) -> None:
        """Re-resolve observer enablement after an obs-epoch bump."""
        self._observing = self.IS_BOUNDARY and (
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

    def _close(self, observed, sample: bool) -> None:
        """After the exit: take the latency sample if asked, close the span."""
        started, traced = observed
        try:
            if sample and started is not None:
                self._metrics.edge_latency(
                    self._caller_name, self._callee_name
                ).observe(self.machine.cpu.clock_ns - started)
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

    # --- channel interface ---------------------------------------------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        crossing = self._calls.get(fn)
        if crossing is None:
            crossing = self._compile(self._lookup(fn, blocking=False))
        return crossing(args)

    def invoke_batch(
        self, ops: list[tuple[int, str, tuple]]
    ) -> list[Completion]:
        """Execute many queued operations under ONE crossing (doorbell).

        ``ops`` is ``[(ticket, fn, args), ...]``, each already admitted
        (:meth:`admit`).  The gate pays one caller-side charge, one
        crossing record, and one enter/exit domain switch for the whole
        batch; each op then dispatches inside the callee's domain.
        Crash-mid-batch semantics: an op failing with a containable
        fault gets the translated :class:`CompartmentFailure` in its
        completion, every *later* op in the batch is aborted with the
        same failure (the callee domain is gone), and ops that
        completed before it keep their results — exactly the state N
        sync calls would have left behind at the point of the crash.
        Under the ``propagate`` policy the raw fault is raised instead
        (whole-image crash, as sync invoke would).  Ordinary
        (non-fault) exceptions fail only their own op, as N separate
        sync calls would.
        """
        if not ops:
            return []
        entries = [self._lookup(fn, blocking=False) for _, fn, _ in ops]
        crossing = self._batch_call
        if crossing is None:
            bindings = self._bindings()
            crossing = self._batch_call = _factory(
                type(self), "batch", tuple(bindings)
            )(**bindings)
        return crossing(ops, entries)

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
        crossing = self._gen_calls.get(fn)
        if crossing is None:
            if fn not in self.callee_lib.blocking_exports:
                return self._misused(fn)
            crossing = self._compile(self._lookup(fn, blocking=True))
        return crossing(args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} {self.caller_lib.NAME}->"
            f"{self.callee_lib.NAME}>"
        )
