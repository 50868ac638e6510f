"""Unit tests for the blk micro-library: cache, flush barriers, crash."""

import random

import pytest

from repro import BuildConfig, build_image
from repro.libos.blk.blkdev import SECTOR_SIZE, DiskMedium
from repro.machine.faults import GateError


@pytest.fixture
def medium():
    return DiskMedium(num_sectors=64)


@pytest.fixture
def image(medium):
    img = build_image(
        BuildConfig(
            libraries=["libc", "blk"],
            compartments=[["sched", "alloc", "libc", "blk"]],
            backend="none",
        )
    )
    img.lib("blk").attach_medium(medium)
    return img


@pytest.fixture
def buf(image):
    return image.call("alloc", "malloc_shared", SECTOR_SIZE)


def put(image, addr, data):
    space = image.compartments[0].address_space
    image.machine.dma_write(space, addr, data)


def get(image, addr, n):
    space = image.compartments[0].address_space
    return image.machine.dma_read(space, addr, n)


def sector_payload(tag: bytes) -> bytes:
    return (tag * (SECTOR_SIZE // len(tag) + 1))[:SECTOR_SIZE]


def test_write_is_not_durable_until_flush(image, medium, buf):
    payload = sector_payload(b"A")
    put(image, buf, payload)
    image.call("blk", "blk_write", 3, buf)
    # The medium has not seen the write ...
    assert medium.read(3) == b"\x00" * SECTOR_SIZE
    # ... but reads are served from the cache.
    put(image, buf, b"\x00" * SECTOR_SIZE)
    image.call("blk", "blk_read", 3, buf)
    assert get(image, buf, SECTOR_SIZE) == payload
    flushed = image.call("blk", "blk_flush")
    assert flushed == 1
    assert medium.read(3) == payload


def test_flush_is_idempotent_and_ordered(image, medium, buf):
    for sector, tag in ((5, b"x"), (1, b"y"), (9, b"z")):
        put(image, buf, sector_payload(tag))
        image.call("blk", "blk_write", sector, buf)
    assert image.call("blk", "blk_flush") == 3
    assert image.call("blk", "blk_flush") == 0  # nothing dirty
    assert medium.read(1) == sector_payload(b"y")


def test_rewrite_moves_sector_to_flush_tail(image, medium, buf):
    put(image, buf, sector_payload(b"1"))
    image.call("blk", "blk_write", 2, buf)
    put(image, buf, sector_payload(b"2"))
    image.call("blk", "blk_write", 2, buf)  # rewrite, still one flush
    assert image.call("blk", "blk_flush") == 1
    assert medium.read(2) == sector_payload(b"2")


def test_out_of_range_sector_rejected(image, buf):
    with pytest.raises(GateError, match="out of range"):
        image.call("blk", "blk_write", 64, buf)
    with pytest.raises(GateError, match="out of range"):
        image.call("blk", "blk_read", -1, buf)


def test_blk_info_and_stats(image, medium, buf):
    info = image.call("blk", "blk_info")
    assert info["num_sectors"] == 64
    assert info["sector_size"] == SECTOR_SIZE
    put(image, buf, sector_payload(b"s"))
    image.call("blk", "blk_write", 0, buf)
    stats = image.call("blk", "blk_stats")
    assert stats["writes"] == 1 and stats["dirty"] == 1 and stats["flushes"] == 0
    image.call("blk", "blk_flush")
    stats = image.call("blk", "blk_stats")
    assert stats["dirty"] == 0 and stats["medium_writes"] == 1
    assert stats["flushes"] == 1 and isinstance(stats["flushes"], int)


def test_ops_charge_simulated_time(image, buf):
    before = image.clock_ns
    put(image, buf, sector_payload(b"t"))
    image.call("blk", "blk_write", 0, buf)
    image.call("blk", "blk_flush")
    assert image.clock_ns > before


def test_standalone_boot_gets_fresh_medium():
    img = build_image(
        BuildConfig(
            libraries=["libc", "blk"],
            compartments=[["sched", "alloc", "libc", "blk"]],
            backend="none",
        )
    )
    assert img.lib("blk").medium is not None


def test_crash_destroys_only_unflushed_state(image, medium, buf):
    put(image, buf, sector_payload(b"D"))
    image.call("blk", "blk_write", 0, buf)
    image.call("blk", "blk_flush")
    for sector in range(1, 9):
        put(image, buf, sector_payload(b"%d" % sector))
        image.call("blk", "blk_write", sector, buf)
    report = image.lib("blk").crash(random.Random(42))
    # Flushed data is untouched — that is the contract.
    assert medium.read(0) == sector_payload(b"D")
    assert report.dirty == 8
    assert report.persisted + report.dropped == 8
    assert medium.generation == 1
    # The cache died with the power.
    stats = image.call("blk", "blk_stats")
    assert stats["dirty"] == 0 and stats["cached"] == 0
    # Every persisted-untorn sector holds exactly the intended bytes;
    # torn sectors hold a strict prefix + garbage.
    torn = set(report.torn_sectors)
    for sector in range(1, 9):
        on_disk = medium.read(sector)
        intended = sector_payload(b"%d" % sector)
        if on_disk == b"\x00" * SECTOR_SIZE:
            continue  # dropped
        if sector in torn:
            assert on_disk != intended
        else:
            assert on_disk == intended


def test_crash_is_seed_deterministic(image, medium, buf):
    for sector in range(4):
        put(image, buf, sector_payload(b"%d" % sector))
        image.call("blk", "blk_write", sector, buf)
    snapshot = dict(medium.sectors)
    report_a = image.lib("blk").crash(random.Random(7))
    state_a = dict(medium.sectors)

    # Rebuild the identical dirty state on a fresh medium + image.
    medium.sectors = dict(snapshot)
    medium.generation = 0
    img2 = build_image(
        BuildConfig(
            libraries=["libc", "blk"],
            compartments=[["sched", "alloc", "libc", "blk"]],
            backend="none",
        )
    )
    img2.lib("blk").attach_medium(medium)
    buf2 = img2.call("alloc", "malloc_shared", SECTOR_SIZE)
    for sector in range(4):
        put(img2, buf2, sector_payload(b"%d" % sector))
        img2.call("blk", "blk_write", sector, buf2)
    report_b = img2.lib("blk").crash(random.Random(7))
    assert report_a.to_dict() == report_b.to_dict()
    assert state_a == dict(medium.sectors)


def test_tear_on_medium_keeps_prefix(image, medium, buf):
    payload = sector_payload(b"P")
    put(image, buf, payload)
    image.call("blk", "blk_write", 6, buf)
    keep = image.lib("blk").tear_on_medium(6, random.Random(3))
    on_disk = medium.read(6)
    assert on_disk[:keep] == payload[:keep]
    assert on_disk != payload
