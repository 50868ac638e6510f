"""Physical memory: a flat byte store carved into 4 KiB frames."""

from __future__ import annotations

import mmap
from typing import Sequence

from repro.machine.faults import OutOfMemoryError

#: Page/frame size in bytes (x86-64 base pages).
PAGE_SIZE = 4096
#: log2(PAGE_SIZE).
PAGE_SHIFT = 12


def page_align_up(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


def page_align_down(value: int) -> int:
    """Round ``value`` down to a page boundary."""
    return value & ~(PAGE_SIZE - 1)


class PhysicalMemory:
    """Flat simulated physical memory with a frame allocator.

    Frames are handed out by a bump allocator with a free list so that
    unmapped regions can be recycled.  All byte content lives in one
    private anonymous ``mmap`` indexed by physical address.  Its pages
    read as zero until first written and the host kernel supplies them
    lazily, so a machine costs no up-front zeroing and its resident
    size is roughly the pages the simulation touched.  The mmap takes
    slice reads and writes like a ``bytearray`` but has no content
    ``==`` (compare two memories' :attr:`view` instead).  :attr:`view`
    is a cached ``memoryview`` over it so readers can slice without the
    double copy a ``bytes(data[...])`` round-trip costs.
    """

    def __init__(self, size_bytes: int = 64 * 1024 * 1024) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise ValueError("physical memory size must be a positive page multiple")
        self.size = size_bytes
        self.data = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        #: Zero-copy window over :attr:`data`; slicing it is free and
        #: ``bytes(view[a:b])`` copies exactly once.
        self.view = memoryview(self.data)
        self._next_frame = 0
        self._free_frames: list[int] = []
        self.num_frames = size_bytes >> PAGE_SHIFT

    def alloc_frame(self) -> int:
        """Allocate one frame; returns the frame number."""
        return self.alloc_frames(1)[0]

    def alloc_frames(self, count: int) -> Sequence[int]:
        """Allocate ``count`` frames (not necessarily contiguous).

        Recycled frames come first, most recently freed first, then one
        run of fresh frames.  A request met wholly from fresh frames is
        returned as a ``range``, so a caller can map it as one run
        without looking at each frame.  All-or-nothing: a request that
        does not fit raises :class:`OutOfMemoryError` and changes
        nothing.
        """
        if count < 0:
            raise ValueError("frame count must be non-negative")
        free = self._free_frames
        reused = min(count, len(free))
        start = self._next_frame
        end = start + count - reused
        if end > self.num_frames:
            raise OutOfMemoryError("physical memory exhausted")
        self._next_frame = end
        if not reused:
            return range(start, end)
        frames = free[len(free) - reused :][::-1]
        del free[len(free) - reused :]
        frames.extend(range(start, end))
        return frames

    def free_frame(self, frame: int) -> None:
        """Return a frame to the allocator and scrub its contents."""
        if not 0 <= frame < self._next_frame:
            raise ValueError(f"invalid frame {frame}")
        base = frame << PAGE_SHIFT
        self.data[base : base + PAGE_SIZE] = bytes(PAGE_SIZE)
        self._free_frames.append(frame)

    def read(self, paddr: int, size: int) -> bytes:
        """Read ``size`` bytes at physical address ``paddr``.

        Returns immutable ``bytes`` built from the cached memoryview —
        one copy, not the two a bytearray-slice round-trip would cost.
        """
        if paddr < 0 or paddr + size > self.size:
            raise ValueError(f"physical read out of range: {paddr:#x}+{size}")
        return bytes(self.view[paddr : paddr + size])

    def write(self, paddr: int, payload) -> None:
        """Write ``payload`` (any bytes-like) at physical address ``paddr``."""
        if paddr < 0 or paddr + len(payload) > self.size:
            raise ValueError(f"physical write out of range: {paddr:#x}+{len(payload)}")
        self.data[paddr : paddr + len(payload)] = payload

    @property
    def frames_allocated(self) -> int:
        """Number of frames currently handed out."""
        return self._next_frame - len(self._free_frames)
