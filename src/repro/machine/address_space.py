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
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import sub
from typing import Iterator, NamedTuple, Sequence

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


@dataclasses.dataclass(frozen=True, slots=True)
class PageEntry:
    """A snapshot of one page's mapping: frame, permissions, protection
    key.  :meth:`AddressSpace.protect` is the only way to change a
    mapping's rights."""

    frame: int
    perms: Permissions
    pkey: int = PKEY_DEFAULT


class _Extent(NamedTuple):
    """A run of pages ``[start, end)`` mapped to consecutive frames from
    ``frame`` on, with one permission set and one pkey.  ``perms`` is
    the plain int of its :class:`Permissions`, which the TLB-miss path
    tests without going through the enum."""

    start: int
    end: int
    frame: int
    perms: int
    pkey: int


def _runs(frames: Sequence[int]) -> list[tuple[int, int]]:
    """Split ``frames`` into maximal runs of consecutive frame numbers,
    as ``(offset, end)`` index pairs.

    A ``range`` (what a fresh allocation returns) is one run.  A list is
    split where neighbours differ by anything but one, found at C speed,
    so the Python work is per run, not per page.
    """
    if not frames:
        return []
    if isinstance(frames, range) and frames.step == 1:
        breaks = []
    else:
        gaps = map(sub, islice(frames, 1, None), frames)
        breaks = list(compress(range(1, len(frames)), map((1).__ne__, gaps)))
    return list(zip([0, *breaks], [*breaks, len(frames)]))


class AddressSpace:
    """A virtual address space backed by :class:`PhysicalMemory`.

    Virtual addresses are allocated by a bump reservation allocator
    starting at ``base``; callers may also request fixed placements
    (needed for the EPT shared region, mapped at the same virtual
    address in every VM).

    The page table is a sorted list of extents, so mapping a region of
    any size stores one extent per run of consecutive frames, and a
    lookup is a bisect over the extents' first pages.
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
        #: The page table: non-overlapping extents sorted by first page,
        #: and those first pages (``_starts[i] == _extents[i].start``)
        #: for bisecting.
        self._starts: list[int] = []
        self._extents: list[_Extent] = []
        self._next_va = base
        self._limit = limit
        #: Software TLB: ``(vpn, op, pkru) → (paddr of page vpn, first
        #: vaddr past its extent)`` for translations whose checks already
        #: passed (see :meth:`repro.machine.machine.Machine._tlb_fill`).
        #: ``op`` is ``"read"``, ``"write"`` or ``"dma"`` (device DMA,
        #: under PKRU 0, checks nothing), so a DMA translation never
        #: serves a CPU access.  Keying on the PKRU value means a WRPKRU
        #: or context switch needs no explicit shootdown — a different
        #: PKRU simply misses.  Any page-table mutation
        #: (map/unmap/protect) clears the whole cache.
        self._access_cache: dict[tuple[int, str, int], tuple[int, int]] = {}
        #: How many times the software TLB was shot down.
        self.tlb_invalidations = 0

    def _invalidate(self) -> None:
        """Shoot down the software TLB after a page-table mutation."""
        if self._access_cache:
            self._access_cache.clear()
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
        address instead of reserving a fresh range.  A range that
        overlaps a mapping raises ``ValueError`` before any frame is
        taken.
        """
        size = page_align_up(size)
        if vaddr is None:
            vaddr = self.reserve(size)
        elif vaddr % PAGE_SIZE != 0:
            raise ValueError("fixed mapping address must be page aligned")
        npages = size >> PAGE_SHIFT
        self._slot(vaddr >> PAGE_SHIFT, npages)
        self.map_frames(vaddr, self.phys.alloc_frames(npages), perms, pkey)
        return vaddr

    def map_frames(
        self,
        vaddr: int,
        frames: Sequence[int],
        perms: Permissions = Permissions.RW,
        pkey: int = PKEY_DEFAULT,
    ) -> None:
        """Map existing frames at ``vaddr`` (used for shared mappings).

        Stores one extent per run of consecutive frames.  A range that
        overlaps a mapping raises ``ValueError`` and maps nothing.
        """
        if vaddr % PAGE_SIZE != 0:
            raise ValueError("mapping address must be page aligned")
        vpn = vaddr >> PAGE_SHIFT
        index = self._slot(vpn, len(frames))
        extents = [
            _Extent(vpn + offset, vpn + end, frames[offset], int(perms), pkey)
            for offset, end in _runs(frames)
        ]
        self._starts[index:index] = [extent.start for extent in extents]
        self._extents[index:index] = extents
        self._invalidate()

    def unmap(self, vaddr: int, size: int, free_frames: bool = True) -> None:
        """Remove mappings for the range; optionally free the frames.

        Pages are removed in order: at a hole, the pages before it stay
        unmapped (and their frames freed) and :class:`PageFault` names
        the hole.
        """
        first, last, hole, end = self._carve(vaddr, size)
        removed = self._extents[first:last]
        del self._starts[first:last]
        del self._extents[first:last]
        if free_frames:
            for start, stop, frame, _, _ in removed:
                for number in range(frame, frame + stop - start):
                    self.phys.free_frame(number)
        if hole < end:
            raise PageFault(hole << PAGE_SHIFT, "unmap", "not mapped")

    def frames_of(self, vaddr: int, size: int) -> list[int]:
        """Return the frames backing a mapped range (for aliasing)."""
        vpn = vaddr >> PAGE_SHIFT
        end = vpn + (page_align_up(size) >> PAGE_SHIFT)
        frames: list[int] = []
        while vpn < end:
            extent = self._lookup(vpn)
            if extent is None:
                raise PageFault(vpn << PAGE_SHIFT, "read", "not mapped")
            stop = min(extent.end, end)
            first = extent.frame - extent.start
            frames.extend(range(first + vpn, first + stop))
            vpn = stop
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
        Pages change in order: at a hole, the pages before it keep
        their new rights and :class:`PageFault` names the hole.
        """
        first, last, hole, end = self._carve(vaddr, size)
        extents = self._extents
        for index in range(first, last):
            start, stop, frame, old_perms, old_pkey = extents[index]
            extents[index] = _Extent(
                start,
                stop,
                frame,
                old_perms if perms is None else int(perms),
                old_pkey if pkey is None else pkey,
            )
        if hole < end:
            raise PageFault(hole << PAGE_SHIFT, "protect", "not mapped")

    # --- extent table ---------------------------------------------------------

    def _lookup(self, vpn: int) -> _Extent | None:
        """The extent holding page ``vpn``, or None: the one page-table
        lookup (the machine's TLB-miss path calls it too)."""
        index = bisect_right(self._starts, vpn) - 1
        if index >= 0:
            extent = self._extents[index]
            if vpn < extent.end:
                return extent
        return None

    def _slot(self, vpn: int, npages: int) -> int:
        """Where an extent for pages ``[vpn, vpn + npages)`` goes in the
        table; raises ``ValueError`` naming the first one already mapped."""
        index = bisect_right(self._starts, vpn)
        if not npages:
            return index
        if index and self._extents[index - 1].end > vpn:
            mapped = vpn
        elif index < len(self._starts) and self._starts[index] < vpn + npages:
            mapped = self._starts[index]
        else:
            return index
        raise ValueError(f"{self.name}: page {mapped << PAGE_SHIFT:#x} already mapped")

    def _carve(self, vaddr: int, size: int) -> tuple[int, int, int, int]:
        """Shoot down the TLB, then split extents so that the range's
        pages up to its first hole are whole extents.

        Returns ``(first, last, hole, end)``: those extents' indices
        ``[first, last)``, the first unmapped page (or ``end``) and the
        page past the range, ``size`` rounded up to whole pages from
        ``vaddr``'s page.
        """
        vpn = vaddr >> PAGE_SHIFT
        end = vpn + (page_align_up(size) >> PAGE_SHIFT)
        # Shoot down before mutating: a PageFault halfway through the
        # range must not leave stale cached rights for the pages whose
        # entries were already rewritten.
        self._invalidate()
        hole = vpn
        while hole < end and (extent := self._lookup(hole)) is not None:
            hole = extent.end
        hole = min(hole, end)
        if hole <= vpn:
            return 0, 0, hole, end
        return self._split(vpn), self._split(hole), hole, end

    def _split(self, vpn: int) -> int:
        """Make page ``vpn`` start an extent if one covers it; returns the
        index of the first extent starting at or after it."""
        index = bisect_left(self._starts, vpn)
        if index:
            start, end, frame, perms, pkey = self._extents[index - 1]
            if vpn < end:
                self._extents[index - 1] = _Extent(start, vpn, frame, perms, pkey)
                self._extents.insert(
                    index, _Extent(vpn, end, frame + vpn - start, perms, pkey)
                )
                self._starts.insert(index, vpn)
        return index

    # --- translation ---------------------------------------------------------

    def entry(self, vaddr: int) -> PageEntry:
        """Return the page entry covering ``vaddr`` or raise PageFault."""
        vpn = vaddr >> PAGE_SHIFT
        extent = self._lookup(vpn)
        if extent is None:
            raise PageFault(vaddr, "access", f"not mapped in {self.name}")
        return PageEntry(
            extent.frame + vpn - extent.start, Permissions(extent.perms), extent.pkey
        )

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
        return self._lookup(vaddr >> PAGE_SHIFT) is not None
