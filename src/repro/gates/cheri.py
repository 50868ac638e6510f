"""The capability gate: CHERI-style domain crossings with delegation.

Figure 2's gate menu includes capability hardware ("e.g. protection
keys, capabilities [CHERI]").  This backend isolates compartments by
*reachability* rather than page tags: code can only dereference memory
covered by the capabilities its context holds.  A crossing is a sealed
capability invocation — cheaper than an MPK WRPKRU pair — and the gate
**delegates** bounded capabilities for the call's pointer arguments,
revoked automatically when the crossing returns (the callee context is
popped with its grants).

Libraries describe delegations in ``CAP_GRANTS``: export name → tuple
of ``(pointer_index, size_index_or_fixed)`` pairs, where the second
element is either the index of the length argument or, if negative,
``-fixed_size``.  Exports without grant metadata still work: the callee
can then only reach its own memory plus the shared area.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import Gate, GateOptions, _PlanEntry
from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class CHERIGate(Gate):
    """Capability invocation with per-call pointer delegation."""

    KIND = "cheri"
    ENTRY_COUNTERS = ("gate_crossings", "cheri_crossings")

    # The callee context carries a capability set derived from the
    # compartment's, plus the call's delegations; popping it revokes
    # every delegated capability.
    ENTER = """
        CHARGE(crossing_ns)
        pkru = comp.pkru_value
        capabilities = comp.capabilities.derive()
        if entry.extra:
            gate._grant(entry.extra, args, capabilities, cpu)
        PUSH_POOLED
    """
    EXIT = """
        POP_POOLED
        CHARGE(cheri_exit_ns)
    """
    # A batched crossing (queue channel doorbell) enters the callee
    # domain once with no per-call pointers; each drained submission
    # then delegates its own bounded capabilities on the live context.
    # Grants accumulate over the batch and are revoked together when
    # the batch context pops — the price of amortising the crossing is
    # a batch-wide (rather than per-call) revocation epoch.
    PER_OP_ENTER = """
        if entry.extra:
            gate._grant(entry.extra, args, cpu._contexts[-1].capabilities, cpu)
    """

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        if self.callee_comp.capabilities is None:
            raise GateError(
                f"CHERIGate to {callee_lib.NAME}: compartment has no "
                f"capability set (build with backend='cheri')"
            )
        self._grant_ns = machine.cost.cheri_grant_ns

    def _plan_entry(self, fn: str) -> _PlanEntry:
        # CAP_GRANTS is class-level static metadata: stash the export's
        # grant specs on its plan entry when the entry is made, before
        # its first crossing, batched or not.
        entry = super()._plan_entry(fn)
        entry.extra = tuple(self.callee_lib.CAP_GRANTS.get(fn, ()))
        return entry

    def _plan_ctx_label(self, fn: str) -> str:
        return f"cap:{self.callee_lib.NAME}.{fn}"

    def _bindings(self) -> dict:
        cost = self.machine.cost
        return {
            **super()._bindings(),
            "crossing_ns": cost.cheri_crossing_ns,
            "cheri_exit_ns": cost.cheri_crossing_ns + cost.ret_ns,
        }

    def _grant(self, specs, args: tuple, capabilities, cpu) -> None:
        """Charge and install one call's delegations."""
        grant_ns = self._grant_ns
        counters = self._metrics.table
        nargs = len(args)
        for pointer_index, size_spec in specs:
            if pointer_index >= nargs:
                continue
            addr = args[pointer_index]
            if not isinstance(addr, int):
                continue
            if size_spec < 0:
                size = -size_spec
            elif size_spec < nargs and isinstance(args[size_spec], int):
                size = args[size_spec]
            else:
                continue
            cpu.charge(grant_ns)
            capabilities.grant(addr, size)
            counters["cap_grants"] = counters.get("cap_grants", 0.0) + 1.0
