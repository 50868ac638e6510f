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

Steps 3–5 run once per (page, access kind, PKRU) and are then served
from a software TLB.  Capability (CHERI) contexts check their bounds
on every access first, then translate on the same TLB path under the
all-access PKRU: they are not subject to protection keys.

Device DMA (:meth:`Machine.dma_read` / :meth:`Machine.dma_write`)
bypasses PKRU — as on real hardware, where MPK does not constrain
devices — and never charges the CPU clock, which lets the workload
harness play the role of the external traffic generator.
"""

from __future__ import annotations

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
        context: Context,
        vaddr: int,
        op: str,
        pkru: int,
    ) -> int:
        """Software-TLB miss: full page walk + checks, then cache.

        Performs the permission and PKRU checks for one page — raising
        their faults — then records the earned translation under
        ``(vpn, op, pkru)``.  ``pkru`` is the context's own value, or
        the all-access value for a capability context, whose per-access
        bounds check has already passed and is never cached.
        """
        vpn = vaddr >> PAGE_SHIFT
        extent = space._lookup(vpn)
        if extent is None:
            raise PageFault(vaddr, "access", f"not mapped in {space.name}")
        start, _, frame, perms, pkey = extent
        if op == "read":
            if not perms & _READ:
                raise PageFault(vaddr, "read", "page not readable")
            if not pkru_readable(pkru, pkey):
                raise ProtectionFault(vaddr, "read", pkey, context.label)
        else:
            if not perms & _WRITE:
                raise PageFault(vaddr, "write", "page not writable")
            if not pkru_writable(pkru, pkey):
                raise ProtectionFault(vaddr, "write", pkey, context.label)
        self.tlb_misses += 1
        frame += vpn - start
        space._access_cache[(vpn, op, pkru)] = frame
        return frame

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
        cache = space._access_cache
        vpn = vaddr >> PAGE_SHIFT
        if (vaddr + size - 1) >> PAGE_SHIFT == vpn:
            # Hot case: the access fits one page — one dict probe, one
            # slice.
            frame = cache.get((vpn, "read", pkru))
            if frame is None:
                frame = self._tlb_fill(space, context, vaddr, "read", pkru)
            else:
                self.tlb_hits += 1
            paddr = (frame << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            # Slicing the mmap copies once, straight into bytes.
            return self.phys.data[paddr : paddr + size]
        # Multi-page: try the range cache first — one probe and one
        # slice when the run was already checked and its frames are
        # physically contiguous.
        last_vpn = (vaddr + size - 1) >> PAGE_SHIFT
        npages = last_vpn - vpn + 1
        range_key = (vpn, npages, "read", pkru)
        base_paddr = space._range_cache.get(range_key)
        if base_paddr is not None:
            self.tlb_hits += 1
            paddr = base_paddr | (vaddr & _PAGE_MASK)
            return self.phys.data[paddr : paddr + size]
        view = self.phys.view
        chunks = []
        offset = vaddr
        end = vaddr + size
        first_frame = None
        next_frame = None
        while offset < end:
            vpn = offset >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - offset
            frame = cache.get((vpn, "read", pkru))
            if frame is None:
                frame = self._tlb_fill(space, context, offset, "read", pkru)
            else:
                self.tlb_hits += 1
            if first_frame is None:
                first_frame = frame
            elif frame != next_frame:
                first_frame = -1  # run is not physically contiguous
            next_frame = frame + 1
            paddr = (frame << PAGE_SHIFT) | (offset & _PAGE_MASK)
            chunks.append(view[paddr : paddr + chunk])
            offset += chunk
        if first_frame >= 0:
            space._range_cache[range_key] = first_frame << PAGE_SHIFT
        return b"".join(chunks)

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
        cache = space._access_cache
        data = self.phys.data
        vpn = vaddr >> PAGE_SHIFT
        if (vaddr + size - 1) >> PAGE_SHIFT == vpn:
            frame = cache.get((vpn, "write", pkru))
            if frame is None:
                frame = self._tlb_fill(space, context, vaddr, "write", pkru)
            else:
                self.tlb_hits += 1
            paddr = (frame << PAGE_SHIFT) | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        # Multi-page: a range-cache hit means every page of the run
        # already passed its checks and the frames are physically
        # contiguous — the whole store is one slice assignment.
        last_vpn = (vaddr + size - 1) >> PAGE_SHIFT
        npages = last_vpn - vpn + 1
        range_key = (vpn, npages, "write", pkru)
        base_paddr = space._range_cache.get(range_key)
        if base_paddr is not None:
            self.tlb_hits += 1
            paddr = base_paddr | (vaddr & _PAGE_MASK)
            data[paddr : paddr + size] = payload
            return
        # Miss: check-and-write page by page, in order, so a fault
        # mid-store leaves exactly the pages before it written.
        offset = 0
        va = vaddr
        end = vaddr + size
        first_frame = None
        next_frame = None
        while va < end:
            vpn = va >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - va
            frame = cache.get((vpn, "write", pkru))
            if frame is None:
                frame = self._tlb_fill(space, context, va, "write", pkru)
            else:
                self.tlb_hits += 1
            if first_frame is None:
                first_frame = frame
            elif frame != next_frame:
                first_frame = -1  # run is not physically contiguous
            next_frame = frame + 1
            paddr = (frame << PAGE_SHIFT) | (va & _PAGE_MASK)
            data[paddr : paddr + chunk] = payload[offset : offset + chunk]
            offset += chunk
            va += chunk
        if first_frame >= 0:
            space._range_cache[range_key] = first_frame << PAGE_SHIFT

    def copy(self, dst: int, src: int, size: int) -> None:
        """Checked memory-to-memory copy (one load + one store)."""
        self.store(dst, self.load(src, size))

    def fill(self, vaddr: int, value: int, size: int) -> None:
        """Checked memset."""
        self.store(vaddr, bytes([value & 0xFF]) * size)

    # --- unchecked / device access ---------------------------------------------

    def _dma_frame(self, space: AddressSpace, vaddr: int) -> int:
        """Translation-cache miss for device DMA (no permission checks)."""
        vpn = vaddr >> PAGE_SHIFT
        extent = space._lookup(vpn)
        if extent is None:
            raise PageFault(vaddr, "access", f"not mapped in {space.name}")
        start, _, frame, _, _ = extent
        frame += vpn - start
        space._frame_cache[vpn] = frame
        return frame

    def dma_write(self, space: AddressSpace, vaddr: int, payload: bytes) -> None:
        """Device write: translates via ``space``, bypasses PKRU and cost."""
        cache = space._frame_cache
        data = self.phys.data
        offset = 0
        va = vaddr
        end = vaddr + len(payload)
        while va < end:
            vpn = va >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - va
            frame = cache.get(vpn)
            if frame is None:
                frame = self._dma_frame(space, va)
            paddr = (frame << PAGE_SHIFT) | (va & _PAGE_MASK)
            data[paddr : paddr + chunk] = payload[offset : offset + chunk]
            offset += chunk
            va += chunk

    def dma_read(self, space: AddressSpace, vaddr: int, size: int) -> bytes:
        """Device read: translates via ``space``, bypasses PKRU and cost."""
        cache = space._frame_cache
        view = self.phys.view
        chunks = []
        va = vaddr
        end = vaddr + size
        while va < end:
            vpn = va >> PAGE_SHIFT
            chunk = min(end, (vpn + 1) << PAGE_SHIFT) - va
            frame = cache.get(vpn)
            if frame is None:
                frame = self._dma_frame(space, va)
            paddr = (frame << PAGE_SHIFT) | (va & _PAGE_MASK)
            chunks.append(view[paddr : paddr + chunk])
            va += chunk
        if len(chunks) == 1:
            return bytes(chunks[0])
        return b"".join(chunks)

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
