"""A reference machine for the software-TLB property suite.

:class:`ReferenceMachine` is the definition the TLB-cached
:class:`~repro.machine.machine.Machine` must match: every access walks
the page table and checks page permissions and, outside capability
contexts, the PKRU rights of every page it touches.  Charging, the
domain's monitors and the capability check run in the same order as in
``Machine``, so both machines must agree on every value, fault, clock
and counter.  Device DMA walks the page table without checks.
"""

from __future__ import annotations

from repro.machine.address_space import Permissions
from repro.machine.faults import PageFault, ProtectionFault
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SHIFT
from repro.machine.mpk import pkru_readable, pkru_writable

_PAGE_MASK = (1 << PAGE_SHIFT) - 1


def _paddr(entry, vaddr: int) -> int:
    return (entry.frame << PAGE_SHIFT) | (vaddr & _PAGE_MASK)


def _check(context, vaddr: int, entry, op: str) -> None:
    """Page permission, then PKRU (skipped for capability contexts)."""
    if op == "read":
        perm, allowed, word = Permissions.READ, pkru_readable, "readable"
    else:
        perm, allowed, word = Permissions.WRITE, pkru_writable, "writable"
    if not entry.perms & perm:
        raise PageFault(vaddr, op, f"page not {word}")
    if context.capabilities is None and not allowed(context.pkru, entry.pkey):
        raise ProtectionFault(vaddr, op, entry.pkey, context.label)


class ReferenceMachine(Machine):
    """A :class:`Machine` that walks the page table on every access.

    It counts accesses through ``cpu.bump``, into the registry's stored
    table, and never in the machine's own counts, so the counters the
    registry derives from those are checked against an independent
    count.
    """

    def _charge(self, op: str, vaddr: int, size: int):
        cpu = self.cpu
        context = cpu.current
        profile = context.profile
        factor = profile.load_factor if op == "load" else profile.store_factor
        cpu.charge((cpu.cost.mem_op_ns + size * cpu.cost.mem_byte_ns) * factor)
        cpu.bump(f"{op}s")
        cpu.bump(f"{op}_bytes", size)
        for monitor in profile.monitors:
            monitor(self, op, vaddr, size)
        if context.capabilities is not None:
            cpu.charge(cpu.cost.cheri_check_ns)
            context.capabilities.check(vaddr, size, op)
        return context

    def load(self, vaddr: int, size: int) -> bytes:
        context = self._charge("load", vaddr, size)
        chunks = []
        space = context.address_space
        for chunk_va, chunk_size, entry in space.iter_range(vaddr, size):
            _check(context, chunk_va, entry, "read")
            chunks.append(self.phys.read(_paddr(entry, chunk_va), chunk_size))
        return b"".join(chunks)

    def store(self, vaddr: int, payload: bytes) -> None:
        context = self._charge("store", vaddr, len(payload))
        offset = 0
        space = context.address_space
        for chunk_va, chunk_size, entry in space.iter_range(vaddr, len(payload)):
            _check(context, chunk_va, entry, "write")
            self.phys.write(
                _paddr(entry, chunk_va), payload[offset : offset + chunk_size]
            )
            offset += chunk_size

    def dma_write(self, space, vaddr: int, payload: bytes) -> None:
        offset = 0
        for chunk_va, chunk_size, entry in space.iter_range(vaddr, len(payload)):
            self.phys.write(
                _paddr(entry, chunk_va), payload[offset : offset + chunk_size]
            )
            offset += chunk_size

    def dma_read(self, space, vaddr: int, size: int) -> bytes:
        return b"".join(
            self.phys.read(_paddr(entry, chunk_va), chunk_size)
            for chunk_va, chunk_size, entry in space.iter_range(vaddr, size)
        )
