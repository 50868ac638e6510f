"""Per-domain page tables: virtual address spaces with pkeys.

Each :class:`AddressSpace` maps virtual pages to physical frames with a
permission set and an MPK protection key.  The MPK backend uses a single
address space whose pages carry different pkeys; the EPT backend uses
one address space per VM with a shared region mapped at identical
virtual addresses in every VM (so pointers into shared structures stay
valid, as the paper requires).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator

from repro.machine.faults import OutOfMemoryError, PageFault
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory, page_align_up
from repro.machine.mpk import PKEY_DEFAULT


class Permissions(enum.IntFlag):
    """Page permission bits."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4
    RW = READ | WRITE
    RX = READ | EXEC
    RWX = READ | WRITE | EXEC


@dataclasses.dataclass
class PageEntry:
    """One page-table entry: frame, permissions, protection key."""

    frame: int
    perms: Permissions
    pkey: int = PKEY_DEFAULT


class AddressSpace:
    """A virtual address space backed by :class:`PhysicalMemory`.

    Virtual addresses are allocated by a bump reservation allocator
    starting at ``base``; callers may also request fixed placements
    (needed for the EPT shared region, mapped at the same virtual
    address in every VM).
    """

    #: Default start of the reservable VA range (skip the null page area).
    DEFAULT_BASE = 0x1000_0000
    #: Default end of the reservable VA range.
    DEFAULT_LIMIT = 0x8000_0000

    def __init__(
        self,
        name: str,
        phys: PhysicalMemory,
        base: int = DEFAULT_BASE,
        limit: int = DEFAULT_LIMIT,
    ) -> None:
        self.name = name
        self.phys = phys
        self._pages: dict[int, PageEntry] = {}
        self._next_va = base
        self._limit = limit
        #: Software TLB: ``(vpn, op, pkru) → frame`` for accesses whose
        #: permission + PKRU checks already passed.  The machine fast
        #: path consults it to skip the page walk (see
        #: :meth:`repro.machine.machine.Machine.load`).  Keying on the
        #: PKRU value means a WRPKRU or context switch needs no explicit
        #: shootdown — a different PKRU simply misses.  Any page-table
        #: mutation (map/unmap/protect) clears the whole cache, which is
        #: observationally equivalent to the epoch-tag scheme (a bumped
        #: epoch makes every old key unreachable; clearing reclaims the
        #: memory too).
        self._access_cache: dict[tuple[int, str, int], int] = {}
        #: Range extension of the software TLB: ``(vpn, npages, op,
        #: pkru) → base paddr`` for multi-page runs whose pages all
        #: passed their checks *and* whose frames are physically
        #: contiguous (the common case — ``map_new`` allocates frames
        #: sequentially).  A hit turns a bulk access into one slice
        #: instead of a per-page walk; runs that are not contiguous
        #: simply never enter the cache and keep taking the per-page
        #: path.
        self._range_cache: dict[tuple[int, int, str, int], int] = {}
        #: Translation-only cache (``vpn → frame``) for device DMA,
        #: which bypasses permissions and PKRU entirely.
        self._frame_cache: dict[int, int] = {}
        #: Monotonic generation counter: bumped on every page-table
        #: mutation.  Telemetry / debugging aid; correctness rests on
        #: the caches being cleared, not on this number.
        self.epoch = 0
        #: How many times the software TLB was shot down.
        self.tlb_invalidations = 0

    def _invalidate(self) -> None:
        """Shoot down the software TLB after a page-table mutation."""
        self.epoch += 1
        if self._access_cache or self._frame_cache or self._range_cache:
            self._access_cache.clear()
            self._range_cache.clear()
            self._frame_cache.clear()
            self.tlb_invalidations += 1

    # --- mapping ---------------------------------------------------------

    def reserve(self, size: int) -> int:
        """Reserve a page-aligned VA range of at least ``size`` bytes."""
        if size <= 0:
            raise ValueError("reservation size must be positive")
        size = page_align_up(size)
        vaddr = self._next_va
        if vaddr + size > self._limit:
            raise OutOfMemoryError(f"virtual address space exhausted in {self.name}")
        self._next_va = vaddr + size
        return vaddr

    def map_new(
        self,
        size: int,
        perms: Permissions = Permissions.RW,
        pkey: int = PKEY_DEFAULT,
        vaddr: int | None = None,
    ) -> int:
        """Allocate frames and map them; returns the base virtual address.

        When ``vaddr`` is given, maps at that fixed (page-aligned)
        address instead of reserving a fresh range.
        """
        size = page_align_up(size)
        if vaddr is None:
            vaddr = self.reserve(size)
        elif vaddr % PAGE_SIZE != 0:
            raise ValueError("fixed mapping address must be page aligned")
        npages = size >> PAGE_SHIFT
        frames = self.phys.alloc_frames(npages)
        self.map_frames(vaddr, frames, perms, pkey)
        return vaddr

    def map_frames(
        self,
        vaddr: int,
        frames: list[int],
        perms: Permissions = Permissions.RW,
        pkey: int = PKEY_DEFAULT,
    ) -> None:
        """Map existing frames at ``vaddr`` (used for shared mappings)."""
        if vaddr % PAGE_SIZE != 0:
            raise ValueError("mapping address must be page aligned")
        vpn = vaddr >> PAGE_SHIFT
        for index, frame in enumerate(frames):
            if (vpn + index) in self._pages:
                raise ValueError(
                    f"{self.name}: page {(vpn + index) << PAGE_SHIFT:#x} already mapped"
                )
            self._pages[vpn + index] = PageEntry(frame, perms, pkey)
        self._invalidate()

    def unmap(self, vaddr: int, size: int, free_frames: bool = True) -> None:
        """Remove mappings for the range; optionally free the frames."""
        size = page_align_up(size)
        vpn = vaddr >> PAGE_SHIFT
        self._invalidate()
        for index in range(size >> PAGE_SHIFT):
            entry = self._pages.pop(vpn + index, None)
            if entry is None:
                raise PageFault((vpn + index) << PAGE_SHIFT, "unmap", "not mapped")
            if free_frames:
                self.phys.free_frame(entry.frame)

    def frames_of(self, vaddr: int, size: int) -> list[int]:
        """Return the frames backing a mapped range (for aliasing)."""
        size = page_align_up(size)
        vpn = vaddr >> PAGE_SHIFT
        frames = []
        for index in range(size >> PAGE_SHIFT):
            entry = self._pages.get(vpn + index)
            if entry is None:
                raise PageFault((vpn + index) << PAGE_SHIFT, "read", "not mapped")
            frames.append(entry.frame)
        return frames

    # --- protection ---------------------------------------------------------

    def protect(
        self,
        vaddr: int,
        size: int,
        perms: Permissions | None = None,
        pkey: int | None = None,
    ) -> None:
        """Change permissions and/or pkey of a mapped range.

        This is the simulated analogue of ``mprotect``/``pkey_mprotect``.
        """
        size = page_align_up(size)
        vpn = vaddr >> PAGE_SHIFT
        # Shoot down before mutating: a PageFault halfway through the
        # range must not leave stale cached rights for the pages whose
        # entries were already rewritten.
        self._invalidate()
        for index in range(size >> PAGE_SHIFT):
            entry = self._pages.get(vpn + index)
            if entry is None:
                raise PageFault((vpn + index) << PAGE_SHIFT, "protect", "not mapped")
            if perms is not None:
                entry.perms = perms
            if pkey is not None:
                entry.pkey = pkey

    # --- translation ---------------------------------------------------------

    def entry(self, vaddr: int) -> PageEntry:
        """Return the page entry covering ``vaddr`` or raise PageFault."""
        entry = self._pages.get(vaddr >> PAGE_SHIFT)
        if entry is None:
            raise PageFault(vaddr, "access", f"not mapped in {self.name}")
        return entry

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address to a physical address."""
        entry = self.entry(vaddr)
        return (entry.frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def iter_range(self, vaddr: int, size: int) -> Iterator[tuple[int, int, PageEntry]]:
        """Yield (chunk_vaddr, chunk_size, entry) covering [vaddr, vaddr+size).

        Splits the range at page boundaries so callers can check each
        page's permissions and perform contiguous physical copies.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        offset = vaddr
        end = vaddr + size
        while offset < end:
            page_end = ((offset >> PAGE_SHIFT) + 1) << PAGE_SHIFT
            chunk = min(end, page_end) - offset
            yield offset, chunk, self.entry(offset)
            offset += chunk

    def is_mapped(self, vaddr: int) -> bool:
        """True if the page containing ``vaddr`` is mapped."""
        return (vaddr >> PAGE_SHIFT) in self._pages
