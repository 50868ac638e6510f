"""Unit tests for the kv micro-library: bitcask log over blk."""

import random

import pytest

from repro import BuildConfig, build_image
from repro.libos.blk.blkdev import SECTOR_SIZE, DiskMedium
from repro.libos.kv.store import (
    JOURNAL_DELETE,
    JOURNAL_ENTRY,
    MAX_VALUE,
    KVStoreLibrary,
)
from repro.machine.faults import GateError


def make_image(medium=None, backend="none", policy=None):
    img = build_image(
        BuildConfig(
            libraries=["libc", "blk", "kv"],
            compartments=[["blk", "kv"], ["sched", "alloc", "libc"]],
            backend=backend,
        )
    )
    if medium is not None:
        img.lib("blk").attach_medium(medium)
    if policy is not None:
        img.call("kv", "set_flush_policy", policy)
    return img


@pytest.fixture
def medium():
    return DiskMedium()


@pytest.fixture
def image(medium):
    return make_image(medium)


@pytest.fixture
def buf(image):
    return image.call("alloc", "malloc_shared", max(8192, MAX_VALUE))


def journal(image, buf, key, value=b"", flags=0):
    """Send one entry through ``kv.journal``; returns the entry count."""
    entry = JOURNAL_ENTRY.pack(flags, len(key), len(value)) + key + value
    image.machine.dma_write(image.compartments[0].address_space, buf, entry)
    return image.call("kv", "journal", buf, len(entry))


def put(image, buf, key, value):
    return journal(image, buf, key, value)


def delete(image, buf, key):
    return journal(image, buf, key, flags=JOURNAL_DELETE)


def get(image, buf, key):
    n = image.call("kv", "get", key, buf)
    if n < 0:
        return None
    space = image.compartments[0].address_space
    return image.machine.dma_read(space, buf, n)


# --- basic operations --------------------------------------------------------


def test_put_get_roundtrip(image, buf):
    put(image, buf, b"alpha", b"value-1")
    assert get(image, buf, b"alpha") == b"value-1"
    assert get(image, buf, b"missing") is None


def test_overwrite_returns_latest(image, buf):
    put(image, buf, b"k", b"first")
    put(image, buf, b"k", b"second-longer-value")
    assert get(image, buf, b"k") == b"second-longer-value"
    assert image.call("kv", "kv_keys") == [b"k"]


def test_delete_tombstones(image, buf):
    put(image, buf, b"gone", b"x")
    delete(image, buf, b"gone")
    assert get(image, buf, b"gone") is None
    delete(image, buf, b"gone")  # a missing key takes a tombstone too
    assert image.call("kv", "kv_keys") == []
    assert image.call("kv", "kv_stats")["deletes"] == 2


def test_empty_value_allowed(image, buf):
    put(image, buf, b"empty", b"")
    assert get(image, buf, b"empty") == b""


def test_value_and_key_validation(image, buf):
    with pytest.raises(GateError, match="value length"):
        put(image, buf, b"k", bytes(MAX_VALUE + 1))
    with pytest.raises(GateError, match="key"):
        put(image, buf, b"", b"v")
    assert image.call("kv", "kv_stats")["seq"] == 0


def test_max_value_roundtrip(image, buf):
    value = bytes(range(256)) * (MAX_VALUE // 256)
    put(image, buf, b"big", value)
    assert get(image, buf, b"big") == value


def test_flush_policy_validation(image):
    assert image.call("kv", "set_flush_policy", "batch:8") == "batch:8"
    assert image.call("kv", "set_flush_policy", "every-write") == "every-write"
    with pytest.raises(GateError):
        image.call("kv", "set_flush_policy", "batch:zero")
    with pytest.raises(GateError):
        image.call("kv", "set_flush_policy", "lazy")


def test_sync_advances_durable_seq(medium):
    image = make_image(medium, policy="batch:1000")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    for index in range(5):
        put(image, buf, b"k%d" % index, b"v%d" % index)
    stats = image.call("kv", "kv_stats")
    assert stats["durable_seq"] < stats["seq"]
    durable = image.call("kv", "sync")
    assert durable == stats["seq"]
    assert image.call("kv", "kv_stats")["durable_seq"] == durable


# --- durability across reboot ------------------------------------------------


def test_reboot_recovers_flushed_state(medium):
    image = make_image(medium, policy="every-write")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    expected = {}
    for index in range(60):
        key = b"key%03d" % (index % 20)
        value = (b"V%03d" % index) * 10
        put(image, buf, key, value)
        expected[key] = value
    delete(image, buf, b"key005")
    del expected[b"key005"]

    img2 = make_image(medium)
    buf2 = img2.call("alloc", "malloc_shared", MAX_VALUE)
    report = img2.call("kv", "recover")
    assert report["live_keys"] == len(expected)
    assert report["torn_discarded"] == 0
    for key, value in expected.items():
        assert get(img2, buf2, key) == value
    assert get(img2, buf2, b"key005") is None


def test_recovery_uses_hints_for_sealed_segments(medium):
    image = make_image(medium, policy="batch:16")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    # Enough records to seal several segments.
    for index in range(200):
        put(image, buf, b"h%03d" % (index % 40), (b"%03d" % index) * 30)
    image.call("kv", "sync")
    slots_used = image.call("kv", "kv_stats")["slots_used"]
    assert slots_used > 1

    img2 = make_image(medium)
    img2.call("kv", "recover")
    stats = img2.call("kv", "kv_stats")
    assert stats["hint_hits"] >= slots_used - 1  # all sealed slots
    assert stats["hint_misses"] == 0


def test_compaction_reclaims_space_and_preserves_data(medium):
    image = make_image(medium, policy="batch:32")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    expected = {}
    for index in range(300):
        key = b"c%02d" % (index % 25)
        value = (b"%04d" % index) * 25
        put(image, buf, key, value)
        expected[key] = value
    before = image.call("kv", "kv_stats")
    report = image.call("kv", "compact")
    after = image.call("kv", "kv_stats")
    assert report["live_records"] == 25
    assert report["slots_after"] <= report["slots_before"]
    assert after["compactions"] == before["compactions"] + 1
    for key, value in expected.items():
        assert get(image, buf, key) == value

    # Recovery time scales with live data, not log length: the
    # compacted log recovers from far fewer records.
    img2 = make_image(medium)
    rec = img2.call("kv", "recover")
    assert rec["records"] <= 2 * 25 + 2  # live set + manifest slack
    buf2 = img2.call("alloc", "malloc_shared", MAX_VALUE)
    for key, value in expected.items():
        assert get(img2, buf2, key) == value


def test_crash_preserves_acked_writes_and_discards_torn(medium):
    image = make_image(medium, policy="every-write")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    acked = {}
    for index in range(25):
        key = b"a%02d" % index
        value = b"durable-%04d" % index
        put(image, buf, key, value)
        acked[key] = value
    # Unflushed junk that the crash may tear or drop.
    image.call("kv", "set_flush_policy", "batch:1000")
    for index in range(20):
        put(image, buf, b"junk%02d" % index, b"J%04d" % index)
    image.lib("blk").crash(random.Random(99))

    img2 = make_image(medium)
    buf2 = img2.call("alloc", "malloc_shared", MAX_VALUE)
    img2.call("kv", "recover")
    for key, value in acked.items():
        assert get(img2, buf2, key) == value
    # Whatever junk survived must be byte-exact, never torn garbage.
    for key in img2.call("kv", "kv_keys"):
        if key.startswith(b"junk"):
            index = int(key[4:])
            assert get(img2, buf2, key) == b"J%04d" % index


def test_recovery_metrics_and_counters(medium):
    image = make_image(medium, policy="every-write")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    for index in range(10):
        put(image, buf, b"m%d" % index, b"v")
    img2 = make_image(medium)
    img2.call("kv", "recover")
    counters = img2.machine.cpu.metrics.counters
    assert counters.get("kv.recoveries", 0) >= 1
    histogram = img2.machine.cpu.metrics.histogram("kv.recovery_ns")
    assert histogram.count >= 1
    assert counters.get("kv.appends", 0) == 0  # recovery replays, not appends
    stats = img2.call("kv", "kv_stats")
    assert stats["live_keys"] == 10


def test_kv_across_mpk_boundary(medium):
    """The storage compartment works behind real MPK gates."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "blk", "kv"],
            compartments=[["blk", "kv"], ["sched", "alloc", "libc"]],
            backend="mpk-shared",
        )
    )
    image.lib("blk").attach_medium(medium)
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    put(image, buf, b"mpk", b"across-pkeys")
    assert get(image, buf, b"mpk") == b"across-pkeys"


def test_kv_spec_metadata_is_complete():
    assert KVStoreLibrary.SPEC.strip()
    assert "Requires" in KVStoreLibrary.SPEC
    assert KVStoreLibrary.POINTER_PARAMS["journal"] == (0,)
    assert KVStoreLibrary.CAP_GRANTS["get"] == ((1, -MAX_VALUE),)
    calls = KVStoreLibrary.TRUE_BEHAVIOR["calls"]
    assert "blk::blk_flush" in calls and "alloc::malloc_shared" in calls


# --- on-disk framing rules ---------------------------------------------------


def test_straddling_records_survive_reboot(medium):
    """A header never starts in a sector's last bytes, which the scanner
    skips as zero-fill: records packed across sector boundaries, by a
    batch policy and by a merge, all come back after a reboot."""
    image = make_image(medium, policy="batch:16")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    expected = {}
    # 42-byte records: the 13th would start 8 bytes before a boundary.
    for index in range(40):
        key, value = b"key%03d" % index, b"%017d" % index
        put(image, buf, key, value)
        expected[key] = value
    image.call("kv", "sync")
    rebooted = make_image(medium)
    report = rebooted.call("kv", "recover")
    assert report["torn_discarded"] == 0
    buf = rebooted.call("alloc", "malloc_shared", MAX_VALUE)
    assert {key: get(rebooted, buf, key) for key in expected} == expected

    # 76-byte records packed by a merge: the 21st starts 16 bytes
    # before a boundary.
    for index in range(30):
        key, value = b"bench%04d" % index, (b"%06d" % index) * 8
        put(rebooted, buf, key, value)
        expected[key] = value
    rebooted.call("kv", "compact")
    rebooted.call("kv", "sync")
    again = make_image(medium)
    report = again.call("kv", "recover")
    assert report["torn_discarded"] == 0
    assert report["live_keys"] == len(expected)
    buf = again.call("alloc", "malloc_shared", MAX_VALUE)
    assert {key: get(again, buf, key) for key in expected} == expected


def test_recovery_ignores_a_reused_slots_previous_life(medium):
    """A merge into a reused slot leaves that slot's old records, CRC
    valid, past the merged data; recovery must neither read them back
    (resurrecting deleted keys) nor append after them."""
    image = make_image(medium, policy="every-write")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    expected = {}
    for round_ in range(6):
        for index in range(30):
            key, value = b"k%02d" % index, b"v%d" % (round_ * 100 + index)
            put(image, buf, key, value)
            expected[key] = value
    for index in range(15):
        delete(image, buf, b"k%02d" % index)
        del expected[b"k%02d" % index]
    image.call("kv", "compact")
    image.call("kv", "sync")

    rebooted = make_image(medium)
    rebooted.call("kv", "recover")
    assert rebooted.call("kv", "kv_keys") == sorted(expected)
    buf = rebooted.call("alloc", "malloc_shared", MAX_VALUE)
    put(rebooted, buf, b"after", b"reboot")
    expected[b"after"] = b"reboot"

    again = make_image(medium)
    again.call("kv", "recover")
    assert again.call("kv", "kv_keys") == sorted(expected)
    buf = again.call("alloc", "malloc_shared", MAX_VALUE)
    assert {key: get(again, buf, key) for key in expected} == expected


def test_merge_reads_each_live_sector_once(medium):
    """A second compaction finds several live records per sector (the
    first one packed them) and reads each such sector exactly once."""
    image = make_image(medium, policy="every-write")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    expected = {}
    for index in range(60):
        key, value = b"cold%03d" % index, (b"%04d" % index) * 16
        put(image, buf, key, value)
        expected[key] = value
    image.call("kv", "compact")
    for index in range(20):
        key, value = b"hot%02d" % (index % 5), b"%03d" % index
        put(image, buf, key, value)
        expected[key] = value
    kv = image.lib("kv")
    live = set()
    for key in expected:
        entry = kv._keydir[key]
        base = kv._slot_base(entry.slot)
        first, last = entry.offset, entry.offset + entry.rec_len - 1
        live.update(range(base + first // SECTOR_SIZE, base + last // SECTOR_SIZE + 1))
    assert len(live) < len(expected)  # records share sectors
    reads = image.call("blk", "blk_stats")["reads"]
    image.call("kv", "compact")
    assert image.call("blk", "blk_stats")["reads"] - reads == len(live)
    assert {key: get(image, buf, key) for key in expected} == expected


def test_recovery_fences_off_orphans_behind_a_dropped_sector(medium):
    """A crash that drops one sector but persists a later one leaves a
    CRC-valid orphan past the recovered end; a write acknowledged after
    recovery must outrank it on every later reboot."""
    image = make_image(medium, policy="batch:1000")
    buf = image.call("alloc", "malloc_shared", MAX_VALUE)
    # One 512-byte record per sector: key + value + 19-byte header.
    value = lambda digit: digit * (SECTOR_SIZE - 20)
    put(image, buf, b"A", value(b"1"))
    image.call("kv", "sync")
    put(image, buf, b"B", value(b"2"))
    put(image, buf, b"A", value(b"3"))
    blk = image.lib("blk")
    assert blk._dirty == [3, 4]
    medium.write(4, blk.cache_payload(4))  # the crash persists only sector 4

    recovered = make_image(medium)
    recovered.call("kv", "recover")
    buf = recovered.call("alloc", "malloc_shared", MAX_VALUE)
    assert get(recovered, buf, b"A") == value(b"1")
    recovered.call("kv", "set_flush_policy", "every-write")
    put(recovered, buf, b"A", value(b"4"))  # acknowledged

    for _ in range(2):
        rebooted = make_image(medium)
        rebooted.call("kv", "recover")
        buf = rebooted.call("alloc", "malloc_shared", MAX_VALUE)
        assert get(rebooted, buf, b"A") == value(b"4")
        assert rebooted.call("kv", "kv_keys") == [b"A"]
