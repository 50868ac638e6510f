"""The MPK switched-stack gate (HODOR-like).

Heap, static memory *and stacks* are per-compartment.  Each crossing
switches to a per-thread stack owned by the target compartment, copies
the call's parameters onto it, and copies the return value back; stack
data that must be visible across the boundary is placed on the shared
heap.  Stronger isolation than the shared-stack gate at a higher
per-crossing cost — exactly the 1.4× vs 2.25× spread the paper's
Figure 5 measures for Redis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import WORD_BYTES, GateOptions
from repro.gates.mpk_shared import MPKSharedStackGate

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class MPKSwitchedStackGate(MPKSharedStackGate):
    """MPK gate with per-compartment stacks and parameter copying."""

    KIND = "mpk-switched"
    # A stack switch each way, alongside the shared-stack gate's WRPKRUs.
    ENTRY_COUNTERS = MPKSharedStackGate.ENTRY_COUNTERS + ("stack_switches",)
    EXIT_COUNTERS = MPKSharedStackGate.EXIT_COUNTERS + ("stack_switches",)

    # Stack switch plus copying each parameter word to the target
    # compartment's stack (read caller stack, write callee); on the way
    # back, switch back and copy the return value to the caller's
    # stack.  Then the shared-stack gate's WRPKRU pair.
    ENTER = """
        arg_bytes = max(1, len(args)) * word_bytes
        copy_hist.observe(arg_bytes)
        CHARGE(ss_base_ns + arg_bytes * mem_byte_ns * 2)
    """ + MPKSharedStackGate.ENTER

    EXIT = """
        CHARGE(ss_exit_ns)
    """ + MPKSharedStackGate.EXIT

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        # Distribution of the per-crossing parameter copies — the cost
        # component that separates this gate from the shared-stack one.
        self._copy_hist = machine.cpu.metrics.histogram("gate.arg_copy_bytes")

    def _bindings(self) -> dict:
        # Charge sums keep the association order (a + b) + c of the
        # original per-call arithmetic; the golden corpus pins the floats.
        cost = self.machine.cost
        return {
            **super()._bindings(),
            "copy_hist": self._copy_hist,
            "word_bytes": WORD_BYTES,
            "mem_byte_ns": cost.mem_byte_ns,
            "ss_base_ns": cost.stack_switch_ns + cost.mem_op_ns,
            "ss_exit_ns": (
                cost.stack_switch_ns + cost.mem_op_ns + WORD_BYTES * cost.mem_byte_ns * 2
            ),
        }
