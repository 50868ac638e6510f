"""Unit tests for physical memory and frame allocation."""

import pytest

from repro.machine.faults import OutOfMemoryError
from repro.machine.memory import (
    PAGE_SIZE,
    PhysicalMemory,
    page_align_down,
    page_align_up,
)


def test_page_align_up():
    assert page_align_up(0) == 0
    assert page_align_up(1) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE


def test_page_align_down():
    assert page_align_down(0) == 0
    assert page_align_down(PAGE_SIZE - 1) == 0
    assert page_align_down(PAGE_SIZE) == PAGE_SIZE
    assert page_align_down(2 * PAGE_SIZE + 5) == 2 * PAGE_SIZE


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(0)
    with pytest.raises(ValueError):
        PhysicalMemory(PAGE_SIZE + 1)


def test_frame_allocation_is_sequential():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    assert mem.alloc_frame() == 0
    assert mem.alloc_frame() == 1
    assert mem.frames_allocated == 2


def test_frame_exhaustion():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.alloc_frames(2)
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frame()


def test_freed_frames_are_recycled_and_scrubbed():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    frame = mem.alloc_frame()
    mem.write(frame * PAGE_SIZE, b"secret")
    mem.free_frame(frame)
    again = mem.alloc_frame()
    # The recycled frame must come back and must not leak old bytes.
    assert again == frame
    assert mem.read(frame * PAGE_SIZE, 6) == bytes(6)


def test_free_invalid_frame():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.free_frame(0)  # never allocated
    with pytest.raises(ValueError):
        mem.free_frame(-1)


def test_read_write_roundtrip():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.write(100, b"abcdef")
    assert mem.read(100, 6) == b"abcdef"
    assert mem.read(99, 1) == b"\x00"


def test_out_of_range_access():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.read(PAGE_SIZE - 1, 2)
    with pytest.raises(ValueError):
        mem.write(PAGE_SIZE, b"x")
    with pytest.raises(ValueError):
        mem.read(-1, 1)


def test_negative_frame_count():
    mem = PhysicalMemory(PAGE_SIZE)
    with pytest.raises(ValueError):
        mem.alloc_frames(-1)


def test_alloc_frames_rolls_back_on_exhaustion():
    # Regression: a bulk request that runs out of memory partway used
    # to leak the frames it had already taken.  The failed request must
    # leave the allocator exactly as it found it.
    mem = PhysicalMemory(4 * PAGE_SIZE)
    mem.alloc_frames(2)
    assert mem.frames_allocated == 2
    with pytest.raises(OutOfMemoryError):
        mem.alloc_frames(3)  # only 2 frames left
    assert mem.frames_allocated == 2
    # The rolled-back frames are immediately reusable.
    assert len(mem.alloc_frames(2)) == 2
    assert mem.frames_allocated == 4


def test_alloc_frames_recycles_last_freed_first_then_fresh():
    mem = PhysicalMemory(8 * PAGE_SIZE)
    assert mem.alloc_frames(4) == range(0, 4)  # fresh frames: one run
    for frame in (0, 1, 2):
        mem.free_frame(frame)
    assert mem.alloc_frames(4) == [2, 1, 0, 4]
    assert mem.frames_allocated == 5


def test_read_returns_immutable_snapshot():
    # read() is built from the cached memoryview but must still be a
    # snapshot: later writes do not alter previously returned bytes.
    mem = PhysicalMemory(PAGE_SIZE)
    mem.write(0, b"before")
    snap = mem.read(0, 6)
    mem.write(0, b"after!")
    assert snap == b"before"
    assert isinstance(snap, bytes)
