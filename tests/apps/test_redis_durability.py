"""Durable redis: AOF-style journaling into the kv compartment, and
recovery from that journal after a reboot."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import start_redis
from repro.apps.resp import encode_command as cmd
from repro.apps.workload import run_redis_phase
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
