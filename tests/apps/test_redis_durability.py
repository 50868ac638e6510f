"""Durable redis: AOF-style journaling into the kv compartment, plus the
truncated-dump regression for ``load``."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import start_redis
from repro.apps.rediserver import DumpRecordTooLongError, DumpTruncatedError
from repro.apps.resp import encode_bulk, encode_command as cmd
from repro.apps.workload import ClosedLoopSource, run_redis_phase
from repro.libos.blk.blkdev import DiskMedium


def build_durable(medium=None, backend="none"):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk", "kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend=backend,
        )
    )
    if medium is not None:
        image.lib("blk").attach_medium(medium)
    return image


def drive(image, payloads, expect=b"+OK"):
    start_redis(image)
    run_redis_phase(image, payloads, window=4, expect_prefix=expect)


def set_payloads(entries):
    return [cmd(b"SET", key, value) for key, value in entries]


# --- durable SET/DEL ---------------------------------------------------------


def test_set_journals_into_kv():
    image = build_durable()
    assert image.lib("redis").durable
    drive(image, set_payloads([(b"a", b"one"), (b"b", b"two")]))
    stats = image.call("redis", "redis_stats")
    assert stats["durable"] is True
    assert stats["kv_writes"] == 2
    assert image.call("kv", "kv_keys") == [b"a", b"b"]
    kv_stats = image.call("kv", "kv_stats")
    assert kv_stats["puts"] == 2


def test_del_journals_tombstone():
    image = build_durable()
    drive(image, set_payloads([(b"doomed", b"x")]))
    run_redis_phase(image, [cmd(b"DEL", b"doomed")], expect_prefix=b":1\r\n")
    assert image.call("kv", "kv_keys") == []
    assert image.call("redis", "redis_stats")["kv_writes"] == 2


def test_volatile_image_still_works():
    """Without kv, redis runs exactly as before (no durability)."""
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="none",
        )
    )
    assert not image.lib("redis").durable
    drive(image, set_payloads([(b"v", b"volatile")]))
    stats = image.call("redis", "redis_stats")
    assert stats["durable"] is False and stats["kv_writes"] == 0
    assert image.call("redis", "recover") == {"durable": False, "restored": 0}


@pytest.mark.parametrize("backend", ["none", "mpk-shared", "cheri"])
def test_reboot_recovery_restores_store(backend):
    medium = DiskMedium()
    entries = [
        (b"alpha", b"first value"),
        (b"beta", b""),
        (b"gamma", bytes(range(1, 200))),
        (b"delta", b"rewritten"),
    ]
    image = build_durable(medium, backend)
    image.call("kv", "set_flush_policy", "every-write")
    drive(
        image,
        set_payloads([(b"delta", b"old")] + entries),
    )
    run_redis_phase(image, [cmd(b"DEL", b"beta")], expect_prefix=b":1\r\n")

    # Reboot: fresh image, same medium, recover on boot.
    fresh = build_durable(medium, backend)
    report = fresh.call("redis", "recover")
    assert report["durable"] is True
    assert report["restored"] == 3  # beta deleted
    app = fresh.lib("redis")
    assert app.value_of(b"alpha") == b"first value"
    assert app.value_of(b"gamma") == bytes(range(1, 200))
    assert app.value_of(b"delta") == b"rewritten"
    assert app.value_of(b"beta") is None
    assert fresh.call("redis", "dbsize") == 3


def test_recovered_store_serves_gets():
    medium = DiskMedium()
    image = build_durable(medium)
    image.call("kv", "set_flush_policy", "every-write")
    drive(image, set_payloads([(b"served", b"after-reboot")]))

    fresh = build_durable(medium)
    fresh.call("redis", "recover")
    start_redis(fresh)
    run_redis_phase(
        fresh,
        [cmd(b"GET", b"served")],
        expect_prefix=b"$12\r\nafter-reboot\r\n",
    )


# --- satellite regression: truncated dumps must not corrupt the restore ------


def _vfs_image():
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "vfs", "redis"],
            compartments=[
                ["netstack"],
                ["vfs"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend="none",
        )
    )


def _write_file(image, path, content):
    from repro.libos.fs.ramfs import O_CREAT, O_TRUNC, O_WRONLY

    staging = image.call("alloc", "malloc_shared", max(64, len(content)))
    space = image.compartment_of("vfs").address_space
    image.machine.dma_write(space, staging, content)
    fd = image.call("vfs", "open", path, O_WRONLY | O_CREAT | O_TRUNC)
    image.call("vfs", "write", fd, staging, len(content))
    image.call("vfs", "close", fd)


def _record(key, value):
    return len(key).to_bytes(2, "big") + key + len(value).to_bytes(4, "big") + value


def test_load_truncated_header_raises_typed_error():
    image = _vfs_image()
    start_redis(image)
    # One good record, then a lone header byte.
    _write_file(image, "/dump", _record(b"ok", b"fine") + b"\x00")
    with pytest.raises(DumpTruncatedError, match="record header"):
        image.call("redis", "load", "/dump")
    # The record before the truncation point was restored.
    assert image.lib("redis").value_of(b"ok") == b"fine"


def test_load_truncated_key_raises_typed_error():
    image = _vfs_image()
    start_redis(image)
    # klen says 5 but only 2 key bytes follow.
    _write_file(image, "/dump", (5).to_bytes(2, "big") + b"ab")
    with pytest.raises(DumpTruncatedError, match="key"):
        image.call("redis", "load", "/dump")
    assert image.call("redis", "dbsize") == 0


def test_load_truncated_value_raises_typed_error():
    image = _vfs_image()
    start_redis(image)
    record = _record(b"key", b"full-value")
    _write_file(image, "/dump", record[:-4])  # cut 4 value bytes
    with pytest.raises(DumpTruncatedError, match="value"):
        image.call("redis", "load", "/dump")
    # The half-read record must NOT appear in the store (pre-fix it
    # appeared with garbage bytes from the stale staging buffer).
    assert image.lib("redis").value_of(b"key") is None
    assert image.call("redis", "dbsize") == 0


def test_load_refuses_a_value_longer_than_a_set_can_carry():
    image = _vfs_image()
    app = start_redis(image)
    _write_file(
        image, "/dump", _record(b"ok", b"fine") + _record(b"big", b"x" * 5000)
    )
    with pytest.raises(DumpRecordTooLongError, match="5000 bytes"):
        image.call("redis", "load", "/dump")
    # Refused before its value was read: no key, and the record before
    # it stays restored.
    assert app.value_of(b"big") is None
    assert image.call("redis", "dbsize") == 1
    # A key a SET could not carry either would not fit the staging buffer.
    _write_file(image, "/dump", _record(b"k" * 5000, b"v"))
    with pytest.raises(DumpRecordTooLongError, match="key of 5000 bytes"):
        image.call("redis", "load", "/dump")
    assert image.call("redis", "dbsize") == 1

    value = (bytes(range(256)) * 16)[: app.MAX_VALUE]
    _write_file(image, "/dump", _record(b"max", value))
    assert image.call("redis", "load", "/dump") == 1
    # Its GET reply goes out whole and fits the response buffer.
    reply = encode_bulk(value)
    assert len(reply) <= app.BUF_SIZE
    netstack = image.lib("netstack")
    source = ClosedLoopSource(app.PORT, [cmd(b"GET", b"max")])
    frames = []
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = lambda frame: (
        source.sink(frame),
        frames.append(source.last_response),
    )
    image.run(
        until=lambda: sum(map(len, frames)) >= len(reply),
        max_switches=100_000,
    )
    assert b"".join(frames) == reply


def test_load_clean_dump_still_roundtrips():
    image = _vfs_image()
    start_redis(image)
    _write_file(
        image, "/dump", _record(b"a", b"1") + _record(b"b", b"22")
    )
    assert image.call("redis", "load", "/dump") == 2
    assert image.lib("redis").value_of(b"b") == b"22"


# --- journal order: a post-image never outranks a later write ---------------


@pytest.mark.parametrize("queue_edges", [{}, {"redis->kv": "batch:4"}],
                         ids=["sync", "queued"])
@pytest.mark.parametrize("first", [cmd(b"INCR", b"k"), cmd(b"APPEND", b"k", b"xy")],
                         ids=["incr", "append"])
def test_pipelined_post_image_then_set_recovers_the_set(queue_edges, first):
    """``INCR k`` (or ``APPEND k xy``) and ``SET k final`` pipelined in
    one request buffer: recovery must give ``final``, the value memory
    holds, on every kv channel kind."""
    medium = DiskMedium()
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk", "kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend="mpk-shared",
            queue_edges=queue_edges,
        )
    )
    image.lib("blk").attach_medium(medium)
    start_redis(image)
    run_redis_phase(image, [first, cmd(b"SET", b"k", b"final")], window=4)
    assert image.call("redis", "redis_stats")["errors"] == 0
    assert image.lib("redis").value_of(b"k") == b"final"
    image.call("kv", "sync")

    rebooted = build_durable(medium, "mpk-shared")
    rebooted.call("redis", "recover")
    assert rebooted.lib("redis").value_of(b"k") == b"final"
