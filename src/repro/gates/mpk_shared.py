"""The MPK shared-stack gate (ERIM-like).

Heap and static memory are per-compartment (isolated by pkey); thread
stacks live in a domain shared by all compartments, so no stack switch
or argument copy is needed — the crossing is essentially two WRPKRU
instructions plus trampoline bookkeeping (and optional register
clearing).  Cheapest hardware-isolated gate; the trade-off is that any
compartment can read/write any thread's stack frames (the attack
surface ERIM accepts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import Gate, GateOptions
from repro.machine.cpu import Context

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class MPKSharedStackGate(Gate):
    """Domain switch via PKRU write; stacks stay in a shared domain."""

    KIND = "mpk-shared"
    EXTRA_COUNTER = "mpk_crossings"

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        cost = machine.cost
        self._switch_ns = cost.gate_dispatch_ns
        self._exit_ns = cost.ret_ns
        if self.options.clear_registers:
            self._switch_ns += cost.reg_clear_ns
            self._exit_ns += cost.reg_clear_ns
        self._wrpkru_ns = cost.wrpkru_ns

    # Each WRPKRU charges, counts and traces exactly like
    # ``CPU.wrpkru``; the gate holds the token by construction, so the
    # token identity check is elided.  The MPK gates carry the hottest
    # crossings, so the context-pool steps of ``Gate._push_context`` /
    # ``_pop_context`` are inlined here.

    def _enter(self, entry, args, cpu) -> None:
        cpu.charge(self._switch_ns)
        # Enter the callee's domain: push its context carrying the
        # caller's PKRU, then perform the (sealed) WRPKRU — gates are
        # the only code authorised to issue it.
        comp = self.callee_comp
        ctx = self._ctx_pool
        if ctx is None:
            ctx = Context(
                address_space=comp.address_space,
                pkru=cpu._contexts[-1].pkru,
                profile=comp.profile,
                label=entry.ctx_label,
                capabilities=comp.capabilities,
            )
        else:
            self._ctx_pool = None
            ctx.label = entry.ctx_label
            ctx.pkru = cpu._contexts[-1].pkru
        cpu.push_context(ctx)
        cpu.charge(self._wrpkru_ns)
        counters = self._counters
        counters["wrpkru"] = counters.get("wrpkru", 0.0) + 1.0
        tracer = self._tracer
        if tracer._enabled:
            tracer.instant("wrpkru", "mpk", value=comp.pkru_value)
        ctx.pkru = comp.pkru_value

    def _exit(self, entry, cpu) -> None:
        ctx = cpu.pop_context()
        if self._ctx_pool is None:
            self._ctx_pool = ctx
        # WRPKRU back to the caller's domain value (which the caller's
        # context already holds, so nothing to assign).
        cpu.charge(self._wrpkru_ns)
        counters = self._counters
        counters["wrpkru"] = counters.get("wrpkru", 0.0) + 1.0
        tracer = self._tracer
        if tracer._enabled:
            tracer.instant("wrpkru", "mpk", value=cpu._contexts[-1].pkru)
        cpu.charge(self._exit_ns)
