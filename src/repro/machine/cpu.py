"""The simulated CPU: execution contexts, clock, and statistics.

A *context* captures what real hardware holds in registers while a
compartment executes: the active address space (CR3 / EPT pointer), the
PKRU value, and the *domain profile* — the software-hardening
instrumentation compiled into the code currently running.  Gates push a
context on entry to a foreign compartment and pop it on return, exactly
like a domain switch.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.machine.cycles import DEFAULT_COST_MODEL, CostModel
from repro.machine.mpk import pkru_all_access
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.machine.address_space import AddressSpace


@dataclasses.dataclass
class DomainProfile:
    """Instrumentation profile of the code executing in a domain.

    Built at image-build time from the compartment's software-hardening
    configuration.  The machine consults the current context's profile
    on every access:

    - ``load_factor`` / ``store_factor`` scale memory-op cost (ASAN,
      DFI, UBSAN instrumentation overhead);
    - ``monitors`` are callbacks (``monitor(machine, kind, vaddr,
      size)`` with ``kind`` in {"load", "store"}) that can detect
      violations (ASAN redzones) and charge flat check costs.
    """

    name: str = "default"
    load_factor: float = 1.0
    store_factor: float = 1.0
    monitors: list[Callable[["object", str, int, int], None]] = dataclasses.field(
        default_factory=list
    )
    #: Flat extra cost charged per function call made by this domain
    #: (stack protector canaries, SafeStack bookkeeping).
    call_extra_ns: float = 0.0
    #: Callbacks invoked on every outgoing cross-library call:
    #: ``monitor(caller_lib, callee_lib, fn_name)`` — CFI target checks.
    call_monitors: list[Callable[[str, str, str], None]] = dataclasses.field(
        default_factory=list
    )


#: Profile used before any image is built (uninstrumented).
NEUTRAL_PROFILE = DomainProfile()


@dataclasses.dataclass
class Context:
    """One execution context (protection-domain view of the CPU)."""

    address_space: "AddressSpace"
    pkru: int = dataclasses.field(default_factory=pkru_all_access)
    profile: DomainProfile = dataclasses.field(default_factory=lambda: NEUTRAL_PROFILE)
    label: str = ""
    #: Capability set (CHERI-style backends).  When present, accesses
    #: are checked against capabilities *instead of* protection keys.
    capabilities: object | None = None


class CPU:
    """Simulated CPU: context stack, nanosecond clock, and counters.

    The clock only moves by charges — :meth:`charge`, and the same
    additions inlined by the machine's access path and the compiled
    gate crossings — so determinism is total, and reading the clock,
    a counter or a snapshot never moves it.
    """

    def __init__(self, cost: CostModel | None = None) -> None:
        self.cost = cost if cost is not None else DEFAULT_COST_MODEL
        self._clock_ns: float = 0.0
        self._contexts: list[Context] = []
        #: All metrics of this CPU (counters, histograms, gate edges).
        self.metrics = MetricsRegistry()
        #: Span tracer, attached by :class:`repro.obs.Observability`
        #: (None only for a bare CPU constructed outside a Machine).
        self.tracer = None
        #: When True, every charge is also attributed to the profile
        #: (≈ compartment) of the executing context — a simulated-time
        #: profiler.  Off by default (it taxes every charge).
        self.attribute_time: bool = False
        #: Accumulated simulated ns per domain-profile name.
        self.domain_time_ns: dict[str, float] = {}
        # PKRU sealing: WRPKRU is unprivileged on real hardware, so any
        # compartment could rewrite its own permissions.  FlexOS must
        # police it ("via static analysis, runtime checks or page-table
        # sealing", §3); here only holders of the gate token — the gate
        # implementations — may issue WRPKRU.
        self._gate_token = object()

    @property
    def clock_ns(self) -> float:
        """Current simulated time (read-only; only charges move it)."""
        return self._clock_ns

    # --- context management ----------------------------------------------

    @property
    def current(self) -> Context:
        """The active execution context."""
        if not self._contexts:
            raise RuntimeError("no execution context active")
        return self._contexts[-1]

    @property
    def has_context(self) -> bool:
        """True if at least one context is active."""
        return bool(self._contexts)

    def push_context(self, context: Context) -> None:
        """Enter a protection domain (gate entry, boot)."""
        self._contexts.append(context)

    def pop_context(self) -> Context:
        """Leave the current protection domain (gate return)."""
        if not self._contexts:
            raise RuntimeError("context stack underflow")
        return self._contexts.pop()

    @property
    def context_depth(self) -> int:
        """Current nesting depth of domain crossings."""
        return len(self._contexts)

    def swap_context_stack(self, new_stack: list[Context]) -> list[Context]:
        """Replace the whole context stack; returns the previous one.

        Used by the cooperative scheduler on a thread switch: a blocked
        thread may be suspended deep inside a chain of gate crossings,
        so its entire stack of protection-domain contexts is saved and
        restored wholesale — the simulated analogue of saving PKRU and
        the stack pointer in the thread control block (which is exactly
        why the paper requires the scheduler to be trusted under MPK).
        """
        old = self._contexts
        self._contexts = new_stack
        return old

    # --- PKRU sealing -----------------------------------------------------------

    def gate_token(self) -> object:
        """The WRPKRU authorisation token.

        Only gate implementations (trusted, generated by the builder)
        may hold this; library code obtaining it would be the
        equivalent of smuggling a raw WRPKRU past the sealing checks.
        """
        return self._gate_token

    def wrpkru(self, value: int, token: object | None = None) -> None:
        """Execute a (sealed) WRPKRU: set the current context's PKRU.

        Raises :class:`ProtectionFault` for any caller not presenting
        the gate token — the simulated analogue of ERIM's binary
        inspection / Hodor's runtime checks rejecting rogue WRPKRU
        occurrences (see also "PKU Pitfalls", cited by the paper).
        """
        from repro.machine.faults import ProtectionFault

        self.charge(self.cost.wrpkru_ns)
        self.bump("wrpkru")
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("wrpkru", "mpk", value=value)
        if token is not self._gate_token:
            raise ProtectionFault(
                0,
                "write",
                None,
                "unauthorized WRPKRU blocked by PKRU sealing",
            )
        self.current.pkru = value

    # --- accounting -------------------------------------------------------

    def charge(self, ns: float) -> None:
        """Advance the clock by ``ns`` simulated nanoseconds.

        Compiled gate crossings inline exactly these steps (see
        ``CHARGE`` in :mod:`repro.gates.base`).
        """
        self._clock_ns += ns
        if self.attribute_time:
            self._attribute(ns)

    def _attribute(self, ns: float) -> None:
        """Add a charge to the executing context's profile's time."""
        if self._contexts:
            name = self._contexts[-1].profile.name
            self.domain_time_ns[name] = self.domain_time_ns.get(name, 0.0) + ns

    def bump(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named statistics counter (via the registry)."""
        self.metrics.inc(counter, amount)

    def snapshot(self) -> dict[str, float]:
        """Copy of the counters plus the current clock."""
        snap = self.metrics.counters
        snap["clock_ns"] = self._clock_ns
        return snap
