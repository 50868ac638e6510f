"""Durable redis group commit: one journal call per request buffer, and
no reply before a flush barrier covers every write before it.

Each test pipelines one window of 8 requests, which the server reads in
one ``recv`` (one request buffer), and records for every reply how many
records the kv store had appended, and how many of those were durable,
when the reply left.
"""

import pytest

from repro import BuildConfig, build_image
from repro.apps import ClosedLoopSource, start_redis
from repro.apps.resp import encode_bulk
from repro.apps.resp import encode_command as cmd
from repro.apps.workload import run_redis_phase
from repro.libos.blk.blkdev import DiskMedium
from repro.machine.faults import PowerFailure
from repro.resilience.injector import arm
from repro.resilience.plan import InjectionPlan

WINDOW = 8


def durable_image(medium: DiskMedium):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk", "kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend="mpk-shared",
        )
    )
    image.lib("blk").attach_medium(medium)
    image.call("kv", "set_flush_policy", "every-write")
    start_redis(image)
    return image


def preload(image, payloads) -> None:
    run_redis_phase(image, payloads, window=1)


def pipeline(image, payloads, frames=None):
    """Send ``payloads`` in one window; returns ``(reply, appended,
    durable)`` per reply frame that left: records the kv store had
    appended since the window started, and how many of them were
    durable.  Waits for ``frames`` frames (default: one per request)."""
    kv = image.lib("kv")
    start = kv._seq
    source = ClosedLoopSource(image.lib("redis").PORT, payloads, window=WINDOW)
    replies = []

    def sink(frame: bytes) -> None:
        source.sink(frame)
        replies.append(
            (source.last_response, kv._seq - start, kv._durable_seq - start)
        )

    netstack = image.lib("netstack")
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = sink
    frames = frames or len(payloads)
    image.run(until=lambda: len(replies) >= frames, max_switches=100_000)
    return replies


def test_replies_around_the_writes_leave_on_their_side_of_the_barrier():
    image = durable_image(DiskMedium())
    preload(image, [cmd(b"SET", b"a", b"1")])
    flushes = image.lib("blk").blk_stats()["flushes"]
    replies = pipeline(
        image,
        [
            cmd(b"GET", b"a"),
            cmd(b"GET", b"a"),
            cmd(b"SET", b"b", b"2"),
            cmd(b"GET", b"b"),
            cmd(b"SET", b"c", b"3"),
            cmd(b"GET", b"a"),
            cmd(b"GET", b"c"),
        ],
    )
    # Both GETs before the first write leave before the group's journal
    # call; the held replies and everything after the last write leave
    # once both of its records are durable.
    ok, one, two, three = b"+OK\r\n", b"$1\r\n1\r\n", b"$1\r\n2\r\n", b"$1\r\n3\r\n"
    assert replies == [
        (one, 0, 0),
        (one, 0, 0),
        (ok, 2, 2),
        (two, 2, 2),
        (ok, 2, 2),
        (one, 2, 2),
        (three, 2, 2),
    ]
    # One barrier for the group.
    assert image.lib("blk").blk_stats()["flushes"] == flushes + 1
    assert image.call("redis", "redis_stats")["kv_writes"] == 3


def test_power_cut_in_the_group_barrier_sends_none_of_its_replies():
    medium = DiskMedium()
    image = durable_image(medium)
    acked = {b"k%d" % index: b"v%d" % index for index in range(4)}
    preload(image, [cmd(b"SET", key, value) for key, value in acked.items()])
    arm(image, InjectionPlan(0).torn_blk_flush(nth=1))
    with pytest.raises(PowerFailure):
        pipeline(
            image,
            [
                cmd(b"GET", b"k0"),
                cmd(b"SET", b"x", b"1"),
                cmd(b"GET", b"x"),
                cmd(b"SET", b"y", b"2"),
                cmd(b"GET", b"k1"),
            ],
        )
    # Only the reply before the group's first write left.
    assert image.lib("redis").responses == len(acked) + 1

    rebooted = build_image(image.config)
    rebooted.lib("blk").attach_medium(medium)
    rebooted.call("redis", "recover")
    app = rebooted.lib("redis")
    assert {key: app.value_of(key) for key in acked} == acked


def test_full_journal_buffer_commits_early():
    """Three ~2.8 KB APPEND post-images overflow the 8 KiB AOF buffer:
    the first two commit under one barrier before the third is
    journaled, and no reply leaves before the barrier that covers it."""
    medium = DiskMedium()
    image = durable_image(medium)
    chunk = b"z" * 900
    preload(
        image,
        [cmd(b"SET", b"big", chunk), cmd(b"APPEND", b"big", chunk),
         cmd(b"APPEND", b"big", chunk)],
    )
    suffix = b"s" * 50
    replies = pipeline(image, [cmd(b"APPEND", b"big", suffix)] * 3)
    assert replies == [
        (b":2750\r\n", 2, 2),
        (b":2800\r\n", 2, 2),
        (b":2850\r\n", 3, 3),
    ]

    rebooted = build_image(image.config)
    rebooted.lib("blk").attach_medium(medium)
    rebooted.call("redis", "recover")
    assert rebooted.lib("redis").value_of(b"big") == chunk * 3 + suffix * 3


def test_full_response_buffer_commits_early():
    """Held GET replies that would overflow the response buffer send
    the group so far, after its barrier, before the next one is held."""
    image = durable_image(DiskMedium())
    value = b"g" * 1400
    preload(image, [cmd(b"SET", b"g", value)])
    get = b"$1400\r\n" + value + b"\r\n"
    replies = pipeline(
        image,
        [cmd(b"SET", b"a", b"1")] + [cmd(b"GET", b"g")] * 3 + [cmd(b"SET", b"b", b"2")],
    )
    assert replies == [
        (b"+OK\r\n", 1, 1),
        (get, 1, 1),
        (get, 1, 1),
        (get, 2, 2),
        (b"+OK\r\n", 2, 2),
    ]


def test_append_past_the_largest_settable_value_is_refused():
    """An APPEND whose result a SET could not carry answers -ERR and
    leaves the value as it was, so every stored value journals and
    every GET reply fits the response buffer."""
    medium = DiskMedium()
    image = durable_image(medium)
    app = image.lib("redis")
    chunk = b"z" * 1400
    preload(image, [cmd(b"SET", b"big", chunk)])
    replies = pipeline(image, [cmd(b"APPEND", b"big", chunk)] * 3)
    assert replies == [
        (b":2800\r\n", 1, 1),
        (b"-ERR\r\n", 1, 1),
        (b"-ERR\r\n", 1, 1),
    ]
    assert app.value_of(b"big") == chunk * 2
    # The longest value a SET carries still has a GET reply that fits.
    assert len(encode_bulk(b"v" * app.MAX_VALUE)) <= app.BUF_SIZE

    rebooted = build_image(image.config)
    rebooted.lib("blk").attach_medium(medium)
    rebooted.call("redis", "recover")
    assert rebooted.lib("redis").value_of(b"big") == chunk * 2
