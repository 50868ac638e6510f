"""Functional tests for the Redis-like server (protocol correctness)."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import (
    ClosedLoopSource,
    make_get_payloads,
    make_set_payloads,
    run_redis_phase,
    start_redis,
)
from repro.apps.resp import encode_command as cmd

GROUPS = [["netstack"], ["sched", "alloc", "libc", "redis"]]


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=GROUPS,
            backend="none",
        )
    )


def run_requests(image, payloads, window=4):
    app = start_redis(image)
    netstack = image.lib("netstack")
    source = ClosedLoopSource(app.PORT, payloads, window=window)
    netstack.nic.rx_source = source.source
    responses = []
    netstack.nic.tx_sink = lambda frame: (
        source.sink(frame),
        responses.append(source.last_response),
    )
    image.run(until=lambda: source.done, max_switches=100_000)
    assert source.done
    return responses


def test_set_then_get_roundtrip(image):
    responses = run_requests(
        image,
        [cmd(b"SET", b"color", b"blue"), cmd(b"GET", b"color")],
    )
    assert responses == [b"+OK\r\n", b"$4\r\nblue\r\n"]


def test_get_miss(image):
    responses = run_requests(image, [cmd(b"GET", b"nothing")])
    assert responses == [b"$-1\r\n"]
    assert image.call("redis", "redis_stats")["misses"] == 1


def test_overwrite_replaces_value(image):
    responses = run_requests(
        image,
        [
            cmd(b"SET", b"k", b"old"),
            cmd(b"SET", b"k", b"newdata"),
            cmd(b"GET", b"k"),
        ],
    )
    assert responses[-1] == b"$7\r\nnewdata\r\n"
    assert image.call("redis", "dbsize") == 1


def test_values_live_in_simulated_memory(image):
    run_requests(image, [cmd(b"SET", b"key", b"hello world")])
    assert image.lib("redis").value_of(b"key") == b"hello world"
    assert image.lib("redis").value_of(b"absent") is None


def test_empty_value(image):
    responses = run_requests(
        image, [cmd(b"SET", b"empty", b""), cmd(b"GET", b"empty")]
    )
    assert responses == [b"+OK\r\n", b"$0\r\n\r\n"]


def test_binaryish_values(image):
    # Every byte value, CR and LF included: RESP bulks are length-framed.
    value = bytes(range(256))
    responses = run_requests(
        image, [cmd(b"SET", b"bin", value), cmd(b"GET", b"bin")]
    )
    assert responses[-1] == b"$%d\r\n" % len(value) + value + b"\r\n"
    assert image.lib("redis").value_of(b"bin") == value


def test_malformed_commands(image):
    responses = run_requests(
        image,
        [
            cmd(b"SET", b"missing-args"),
            cmd(b"FLY", b"away"),
            cmd(b"SET", b"k", b"v", b"extra"),
        ],
    )
    assert responses == [b"-ERR\r\n"] * 3
    stats = image.call("redis", "redis_stats")
    assert stats["errors"] == 3
    assert stats["sets"] == 0
    assert image.call("redis", "dbsize") == 0


def test_pipelined_commands_in_one_packet(image):
    responses = run_requests(
        image,
        [cmd(b"SET", b"a", b"x") + cmd(b"GET", b"a") + cmd(b"GET", b"missing")],
    )
    # One packet carrying three commands yields three responses.
    assert responses == [b"+OK\r\n", b"$1\r\nx\r\n", b"$-1\r\n"]


def test_partial_command_across_packets(image):
    """A SET whose value is split across two packets completes after the
    second arrives (stream reassembly)."""
    # window=2 so the completing packet is sent without waiting for a
    # response to the (necessarily silent) partial one.
    frame = cmd(b"SET", b"split", b"firsthalf!")
    cut = frame.index(b"first") + len(b"first")
    half1 = frame[:cut]
    half2 = frame[cut:] + cmd(b"GET", b"split")
    responses = run_requests(image, [half1, half2], window=2)
    assert responses == [b"+OK\r\n", b"$10\r\nfirsthalf!\r\n"]


def test_stats_counters(image):
    run_requests(
        image,
        [
            cmd(b"SET", b"a", b"x"),
            cmd(b"GET", b"a"),
            cmd(b"GET", b"a"),
            cmd(b"GET", b"b"),
        ],
    )
    stats = image.call("redis", "redis_stats")
    assert stats["sets"] == 1
    assert stats["gets"] == 3
    assert stats["misses"] == 1
    assert stats["responses"] == 4


def test_run_redis_phase_helper(image):
    start_redis(image)
    sets = run_redis_phase(
        image, make_set_payloads(20, 32, keyspace=8), expect_prefix=b"+OK"
    )
    assert sets.requests == 20
    gets = run_redis_phase(
        image, make_get_payloads(40, 8), expect_prefix=b"$"
    )
    assert gets.requests == 40
    assert gets.mreq_s > 0
    assert gets.elapsed_ns > 0


def test_payload_generators():
    sets = make_set_payloads(10, 16, keyspace=4)
    assert len(sets) == 10
    assert sets[0].startswith(b"*3\r\n$3\r\nSET\r\n$4\r\nkey0\r\n$16\r\n")
    assert b"$4\r\nkey0\r\n" in sets[4]  # keyspace cycles
    gets = make_get_payloads(6, 3)
    assert gets[3] == b"*2\r\n$3\r\nGET\r\n$4\r\nkey0\r\n"


def test_start_redis_idempotent(image):
    app1 = start_redis(image)
    app2 = start_redis(image)
    assert app1 is app2
