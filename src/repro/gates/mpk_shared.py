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

from repro.gates.base import Gate


class MPKSharedStackGate(Gate):
    """Domain switch via PKRU write; stacks stay in a shared domain."""

    KIND = "mpk-shared"
    # One WRPKRU on the way in and one on the way out: ``wrpkru`` is
    # the entries plus the exits the EXIT fragment counts, so a thread
    # parked or killed inside the callee has issued only the first.
    ENTRY_COUNTERS = ("gate_crossings", "mpk_crossings", "wrpkru")
    EXIT_COUNTERS = ("wrpkru",)

    # Each WRPKRU charges and traces exactly like ``CPU.wrpkru``, and
    # counts through the declarations above; the gate holds the token
    # by construction, so the token identity check is elided.

    ENTER = """
        CHARGE(switch_ns)
        # Enter the callee's domain: push its context carrying the
        # caller's PKRU, then perform the (sealed) WRPKRU — gates are
        # the only code authorised to issue it.
        pkru = cpu._contexts[-1].pkru
        capabilities = comp.capabilities
        PUSH_POOLED
        CHARGE(wrpkru_ns)
        if tracer._enabled:
            tracer.instant("wrpkru", "mpk", value=comp.pkru_value)
        ctx.pkru = comp.pkru_value
    """

    EXIT = """
        POP_POOLED
        # WRPKRU back to the caller's domain value (which the caller's
        # context already holds, so nothing to assign).
        CHARGE(wrpkru_ns)
        gate.exits += 1
        if tracer._enabled:
            tracer.instant("wrpkru", "mpk", value=cpu._contexts[-1].pkru)
        CHARGE(exit_ns)
    """

    def _bindings(self) -> dict:
        cost = self.machine.cost
        switch_ns = cost.gate_dispatch_ns
        exit_ns = cost.ret_ns
        if self.options.clear_registers:
            switch_ns += cost.reg_clear_ns
            exit_ns += cost.reg_clear_ns
        return {
            **super()._bindings(),
            "switch_ns": switch_ns,
            "exit_ns": exit_ns,
            "wrpkru_ns": cost.wrpkru_ns,
        }
