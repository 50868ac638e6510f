"""The machine facade: every simulated load/store goes through here.

Access path for a load/store (mirrors the hardware + instrumentation
pipeline of the paper's testbed):

1. charge instrumented cost (cost model × the current domain profile's
   load/store factor);
2. run the domain's software-hardening monitors (ASAN shadow checks,
   DFI write-set checks) — these may raise :class:`SHViolation`;
3. translate through the current context's address space — unmapped
   pages raise :class:`PageFault` (this is the whole of EPT isolation:
   a foreign VM's private pages simply are not mapped);
4. check page permissions;
5. check the page's protection key against the context's PKRU — a
   mismatch raises :class:`ProtectionFault` (MPK isolation);
6. move the bytes.

Steps 3–5 run once per (first page, access kind, PKRU) and are then
served from a software TLB whose entry covers the rest of that page's
extent, so an access that ends inside the extent is one probe and one
slice, whatever its size.  Capability (CHERI) contexts check their
bounds on every access first, then translate on the same TLB path
under the all-access PKRU: they are not subject to protection keys.

Device DMA (:meth:`Machine.dma_read` / :meth:`Machine.dma_write`)
translates on the same TLB under its own access kind and checks
neither permissions nor PKRU — as on real hardware, where MPK does not
constrain devices — and never charges the CPU clock, which lets the
workload harness play the role of the external traffic generator.
"""

from __future__ import annotations

from typing import Iterator

from repro.machine.address_space import AddressSpace, Permissions
from repro.machine.cpu import CPU, Context
from repro.machine.cycles import CostModel
from repro.machine.ept import SharedWindowAllocator, VMDomain
from repro.machine.faults import PageFault, ProtectionFault
from repro.machine.memory import PAGE_SHIFT, PhysicalMemory
from repro.machine.mpk import pkru_all_access, pkru_readable, pkru_writable
from repro.obs import Observability

_PAGE_MASK = (1 << PAGE_SHIFT) - 1
#: Permission bits as plain ints: the page table stores them that way,
#: and ``int & int`` skips the enum's Python-level operators.
_READ = int(Permissions.READ)
_WRITE = int(Permissions.WRITE)
#: The PKRU value capability contexts translate under.  Their reach is
#: their capability set, checked on every access; CHERI builds assign
#: no pkeys, so the key check it implies always passes.
_CAPABILITY_PKRU = pkru_all_access()


class Machine:
    """A simulated host: physical memory, one CPU, address spaces."""

    def __init__(
        self,
        cost: CostModel | None = None,
        phys_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.phys = PhysicalMemory(phys_bytes)
        self.cpu = CPU(cost)
        #: The active cost model (the CPU's; set once, at construction).
        self.cost: CostModel = self.cpu.cost
        #: Software-TLB telemetry.  Deliberately *not* registry
        #: counters: they are host-side facts about translation
        #: caching, and keeping them out of the registry keeps
        #: ``cpu.snapshot()`` a pure function of the simulation.
        self.tlb_hits = 0
        self.tlb_misses = 0
        #: Every gate built on this machine (host-side telemetry for
        #: :meth:`fastpath_stats`).
        self.gates: list = []
        #: Observability: span tracer (disabled by default) + metrics
        #: registry (shared with the CPU).  See :mod:`repro.obs`.
        self.obs = Observability(self.cpu)
        #: Checked accesses, counted where they happen; the registry
        #: reads them as ``loads``, ``load_bytes``, ``stores`` and
        #: ``store_bytes`` (:meth:`derive_counters`).
        self.loads = 0
        self.load_bytes = 0
        self.stores = 0
        self.store_bytes = 0
        self.cpu.metrics.add_source(self)
        self.spaces: dict[str, AddressSpace] = {}
        self.vm_domains: dict[str, VMDomain] = {}
        self._shared_windows = SharedWindowAllocator(self.phys)
        #: Resilience fault injector (:mod:`repro.resilience`), or None.
        #: Hook sites (gate crossings, allocators, the scheduler, VM
        #: notifications) consult it only when armed; the common path
        #: pays a single attribute check.
        self.injector = None
        #: Group-scoped shared heap registry (see
        #: :mod:`repro.libos.alloc.groupheap`); installed by the builder
        #: or lazily by the first queue channel that needs ring memory.
        self.group_heaps = None

    # --- topology ---------------------------------------------------------

    def new_address_space(self, name: str) -> AddressSpace:
        """Create a named address space (MPK backend uses exactly one)."""
        if name in self.spaces:
            raise ValueError(f"address space {name!r} already exists")
        space = AddressSpace(name, self.phys)
        self.spaces[name] = space
        return space

    def new_vm_domain(self, name: str) -> VMDomain:
        """Create a VM domain (EPT backend: one per compartment)."""
        if name in self.vm_domains:
            raise ValueError(f"VM domain {name!r} already exists")
        domain = VMDomain(len(self.vm_domains), name, self.phys)
        self.vm_domains[name] = domain
        self.spaces[domain.space.name] = domain.space
        return domain

    def map_shared_window(
        self,
        domains: list[VMDomain],
        size: int,
        perms: Permissions = Permissions.RW,
    ) -> int:
        """Map a shared window at identical VAs into all given VMs."""
        return self._shared_windows.map_shared(domains, size, perms)

    # --- checked access -----------------------------------------------------

    def _tlb_fill(
        self,
        space: AddressSpace,
        context: Context | None,
        vaddr: int,
        op: str,
        pkru: int,
    ) -> tuple[int, int]:
        """Software-TLB miss: one page-table lookup, the checks, one entry.

        A ``"read"`` or ``"write"`` checks the page's permission, then
        its key against ``pkru`` — raising their faults; device DMA
        (``"dma"``, under PKRU 0) checks neither.  The earned run is
        cached under ``(vpn, op, pkru)`` as ``(paddr of the page, first
        vaddr past its extent)``: every later page of the extent has
        the same rights and the next frames in order, so the one entry
        covers any access that starts in this page and ends in the
        extent.  ``pkru`` is the context's own value, or the all-access
        value for a capability context, whose per-access bounds check
        has already passed and is never cached.
        """
        vpn = vaddr >> PAGE_SHIFT
        extent = space._lookup(vpn)
        if extent is None:
            raise PageFault(vaddr, "access", f"not mapped in {space.name}")
        start, end, frame, perms, pkey = extent
        if op == "read":
            if not perms & _READ:
                raise PageFault(vaddr, "read", "page not readable")
            if not pkru_readable(pkru, pkey):
                raise ProtectionFault(vaddr, "read", pkey, context.label)
        elif op == "write":
            if not perms & _WRITE:
                raise PageFault(vaddr, "write", "page not writable")
            if not pkru_writable(pkru, pkey):
                raise ProtectionFault(vaddr, "write", pkey, context.label)
        self.tlb_misses += 1
        run = ((frame + vpn - start) << PAGE_SHIFT, end << PAGE_SHIFT)
        space._access_cache[(vpn, op, pkru)] = run
        return run

    def _pieces(
        self,
        space: AddressSpace,
        context: Context | None,
        vaddr: int,
        size: int,
        op: str,
        pkru: int,
    ) -> Iterator[tuple[int, int]]:
        """The walk: ``(paddr, length)`` for each piece of ``[vaddr,
        vaddr + size)`` that lies in one extent, in address order.

        Each piece is translated — a cache probe, or a fill that runs
        its checks — only when the caller asks for it, so a caller
        that moves each piece's bytes before taking the next has moved
        exactly the pages before a fault when one is raised.
        """
        cache = space._access_cache
        end = vaddr + size
        while vaddr < end:
            run = cache.get((vaddr >> PAGE_SHIFT, op, pkru))
            if run is None:
                run = self._tlb_fill(space, context, vaddr, op, pkru)
            else:
                self.tlb_hits += 1
            stop = min(end, run[1])
            yield run[0] | (vaddr & _PAGE_MASK), stop - vaddr
            vaddr = stop

    def load(self, vaddr: int, size: int) -> bytes:
        """Checked read of ``size`` bytes by the current context."""
        cpu = self.cpu
        contexts = cpu._contexts
        if not contexts:
            raise RuntimeError("no execution context active")
        context = contexts[-1]
        profile = context.profile
        cost = cpu.cost
        # CPU.charge inline, then the access counts.
        ns = (cost.mem_op_ns + size * cost.mem_byte_ns) * profile.load_factor
        cpu._clock_ns += ns
        if cpu.attribute_time:
            cpu._attribute(ns)
        self.loads += 1
        self.load_bytes += size
        if profile.monitors:
            for monitor in profile.monitors:
                monitor(self, "load", vaddr, size)
        if context.capabilities is None:
            pkru = context.pkru
        else:
            # Bounds are per access and never cached; translation is.
            cpu.charge(cost.cheri_check_ns)
            context.capabilities.check(vaddr, size, "load")
            pkru = _CAPABILITY_PKRU
        if size <= 0:
            if size:
                raise ValueError("size must be non-negative")
            return b""
        space = context.address_space
        run = space._access_cache.get((vaddr >> PAGE_SHIFT, "read", pkru))
        if run is not None and vaddr + size <= run[1]:
            # Hot case: the access lies in a cached run — one dict
            # probe, one slice (the mmap copies once, straight into
            # bytes).
            self.tlb_hits += 1
            paddr = run[0] | (vaddr & _PAGE_MASK)
            return self.phys.data[paddr : paddr + size]
        view = self.phys.view
        pieces = self._pieces(space, context, vaddr, size, "read", pkru)
        return b"".join([view[paddr : paddr + length] for paddr, length in pieces])

    def store(self, vaddr: int, payload: bytes) -> None:
        """Checked write of ``payload`` by the current context."""
        cpu = self.cpu
        contexts = cpu._contexts
        if not contexts:
            raise RuntimeError("no execution context active")
        context = contexts[-1]
        profile = context.profile
        size = len(payload)
        cost = cpu.cost
        ns = (cost.mem_op_ns + size * cost.mem_byte_ns) * profile.store_factor
        cpu._clock_ns += ns
        if cpu.attribute_time:
            cpu._attribute(ns)
        self.stores += 1
        self.store_bytes += size
        if profile.monitors:
            for monitor in profile.monitors:
                monitor(self, "store", vaddr, size)
        if context.capabilities is None:
            pkru = context.pkru
        else:
            cpu.charge(cost.cheri_check_ns)
            context.capabilities.check(vaddr, size, "store")
            pkru = _CAPABILITY_PKRU
        if not size:
            return
        space = context.address_space
        data = self.phys.data
        run = space._access_cache.get((vaddr >> PAGE_SHIFT, "write", pkru))
        if run is not None and vaddr + size <= run[1]:
            self.tlb_hits += 1
            paddr = run[0] | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        # Write each piece before checking the next, so a fault
        # mid-store leaves exactly the pages before it written.
        offset = 0
        for paddr, length in self._pieces(space, context, vaddr, size, "write", pkru):
            data[paddr : paddr + length] = payload[offset : offset + length]
            offset += length

    def copy(self, dst: int, src: int, size: int) -> None:
        """Checked memory-to-memory copy (one load + one store)."""
        self.store(dst, self.load(src, size))

    def fill(self, vaddr: int, value: int, size: int) -> None:
        """Checked memset."""
        self.store(vaddr, bytes([value & 0xFF]) * size)

    # --- unchecked / device access ---------------------------------------------

    def dma_write(self, space: AddressSpace, vaddr: int, payload: bytes) -> None:
        """Device write: translates via ``space``, bypasses PKRU and cost."""
        size = len(payload)
        data = self.phys.data
        run = space._access_cache.get((vaddr >> PAGE_SHIFT, "dma", 0))
        if run is not None and vaddr + size <= run[1]:
            self.tlb_hits += 1
            paddr = run[0] | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        offset = 0
        for paddr, length in self._pieces(space, None, vaddr, size, "dma", 0):
            data[paddr : paddr + length] = payload[offset : offset + length]
            offset += length

    def dma_read(self, space: AddressSpace, vaddr: int, size: int) -> bytes:
        """Device read: translates via ``space``, bypasses PKRU and cost."""
        run = space._access_cache.get((vaddr >> PAGE_SHIFT, "dma", 0))
        if run is not None and vaddr <= vaddr + size <= run[1]:
            self.tlb_hits += 1
            paddr = run[0] | (vaddr & _PAGE_MASK)
            return self.phys.data[paddr : paddr + size]
        if size < 0:
            raise ValueError("size must be non-negative")
        view = self.phys.view
        pieces = self._pieces(space, None, vaddr, size, "dma", 0)
        return b"".join([view[paddr : paddr + length] for paddr, length in pieces])

    # --- counter source ------------------------------------------------------

    def derive_counters(self, view: dict[str, float]) -> None:
        """Add the access counts to a registry read view.  A byte count
        is present with its access count, even after zero-length ones."""
        if self.loads:
            view["loads"] = view.get("loads", 0.0) + self.loads
            view["load_bytes"] = view.get("load_bytes", 0.0) + self.load_bytes
        if self.stores:
            view["stores"] = view.get("stores", 0.0) + self.stores
            view["store_bytes"] = view.get("store_bytes", 0.0) + self.store_bytes

    def zero_counters(self) -> None:
        self.loads = self.load_bytes = self.stores = self.store_bytes = 0

    # --- host-side telemetry ---------------------------------------------

    def fastpath_stats(self) -> dict:
        """Software-TLB and crossing-plan telemetry (host-side; never
        charged, never in the metrics registry).  Every crossing runs
        on its gate's plan, so ``plan_hits`` is the gates' crossings."""
        return {
            "tlb_hits": self.tlb_hits,
            "tlb_misses": self.tlb_misses,
            "tlb_invalidations": sum(
                space.tlb_invalidations for space in self.spaces.values()
            ),
            "gateplan": {
                "plans": len(self.gates),
                "plan_hits": sum(gate.crossings for gate in self.gates),
                "plan_refreshes": sum(
                    gate.plan_refreshes for gate in self.gates
                ),
            },
        }

    # --- context helpers --------------------------------------------------------

    def boot_context(self, space: AddressSpace, label: str = "boot") -> Context:
        """Push and return an all-access context on ``space``."""
        context = Context(address_space=space, label=label)
        self.cpu.push_context(context)
        return context
