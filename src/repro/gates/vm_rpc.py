"""The VM RPC gate: compartments in separate virtual machines.

The paper's toolchain "generates one VM image per compartment", with a
thin RPC layer over inter-VM notifications and a shared memory area
mapped at identical addresses in every VM.  A crossing therefore costs
two one-way notifications (call + return: event-channel signal, VM
exit/entry, remote dispatch) plus marshalling the argument words into
the shared area — microseconds instead of nanoseconds, which is why
Figure 3's VM-backend iperf only catches the baseline at ~32 KiB
buffers.  Strongest isolation: the callee VM simply has no mapping of
the caller's private pages.

The notification line is where transient faults live: a dropped
event-channel signal would hang a naive RPC layer forever.  This gate
therefore resends after a watchdog timeout with exponential backoff
(:data:`RPC_MAX_RETRIES`, :data:`RPC_BACKOFF_FACTOR`,
``CostModel.vm_rpc_timeout_ns``) and discards duplicated signals by
sequence number — transient losses degrade into latency instead of
crashing the image; sustained loss surfaces as a typed
:class:`~repro.machine.faults.RPCTimeout`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gates.base import WORD_BYTES, Gate, GateOptions
from repro.machine.faults import GateError, RPCTimeout

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine

#: Resends of a lost notification before the gate gives up on a lossy
#: event channel and raises ``RPCTimeout``.
RPC_MAX_RETRIES = 3
#: Multiplier on the watchdog timeout charged per resend (exponential
#: backoff).
RPC_BACKOFF_FACTOR = 2.0


class VMRPCGate(Gate):
    """Synchronous RPC between per-compartment VMs."""

    KIND = "vm-rpc"
    ENTRY_COUNTERS = ("gate_crossings", "vm_rpcs")

    # One notification carries the call's argument words; the return
    # notification carries one word back.
    ENTER = """
        gate._notify(max(1, len(args)) * word_bytes)
        pkru = comp.pkru_value
        capabilities = comp.capabilities
        PUSH_POOLED
    """
    EXIT = """
        POP_POOLED
        gate._notify(word_bytes)
        CHARGE(ret_ns)
    """

    def __init__(
        self,
        machine: "Machine",
        caller_lib: "MicroLibrary",
        callee_lib: "MicroLibrary",
        options: GateOptions | None = None,
    ) -> None:
        super().__init__(machine, caller_lib, callee_lib, options)
        if self.callee_comp.vm_domain is None:
            raise GateError(
                f"VMRPCGate to {callee_lib.NAME}: compartment has no VM domain"
            )
        #: Resilience accounting for this channel.
        self.retries = 0
        self.duplicates_discarded = 0

    def _plan_ctx_label(self, fn: str) -> str:
        return f"rpc:{self.callee_lib.NAME}.{fn}"

    def _bindings(self) -> dict:
        return {**super()._bindings(), "word_bytes": WORD_BYTES}

    def _notify(self, payload_bytes: int) -> None:
        """Send one notification, resending on loss until delivered.

        Every attempt charges the notify + copy cost; a lost attempt
        additionally charges the watchdog timeout (scaled by the
        exponential backoff factor) before the resend.  Exhausting the
        retry budget raises :class:`RPCTimeout` — a channel fault, not
        a compartment failure (see :mod:`repro.machine.faults`).
        """
        cpu = self.machine.cpu
        cost = self.machine.cost
        domain = self.callee_comp.vm_domain
        attempts = 0
        while True:
            cpu.charge(cost.vm_notify_ns + payload_bytes * cost.vm_copy_byte_ns)
            attempts += 1
            verdict = domain.notify(self.machine.injector)
            if verdict == "duplicated":
                # The signal arrived twice; the receiver discards the
                # spurious copy by sequence number.  Charge the extra
                # dispatch it wasted.
                self.duplicates_discarded += 1
                cpu.bump("vm_rpc_duplicates")
                cpu.charge(cost.vm_notify_ns)
                return
            if verdict != "dropped":
                return
            # Lost in flight: wait out the watchdog, back off, resend.
            if attempts > RPC_MAX_RETRIES:
                cpu.bump("vm_rpc_timeouts")
                raise RPCTimeout(
                    f"{self.caller_lib.NAME}->{self.callee_lib.NAME}", attempts
                )
            self.retries += 1
            cpu.bump("vm_rpc_retries")
            cpu.charge(
                cost.vm_rpc_timeout_ns * RPC_BACKOFF_FACTOR ** (attempts - 1)
            )
