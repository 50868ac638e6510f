"""Extended Redis command set: DEL, EXISTS, INCR, APPEND."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import ClosedLoopSource, start_redis
from repro.apps.resp import encode_command as cmd
from repro.apps.workload import _switch_budget


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="none",
        )
    )


def run_requests(image, payloads, window=4):
    app = start_redis(image)
    netstack = image.lib("netstack")
    source = ClosedLoopSource(app.PORT, payloads, window=window)
    responses = []
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = lambda frame: (
        source.sink(frame),
        responses.append(source.last_response),
    )
    image.run(until=lambda: source.done, max_switches=_switch_budget(len(payloads)))
    assert source.done
    return responses


def test_del_existing_and_missing(image):
    responses = run_requests(
        image,
        [
            cmd(b"SET", b"k", b"abc"),
            cmd(b"DEL", b"k"),
            cmd(b"DEL", b"k"),
            cmd(b"GET", b"k"),
        ],
    )
    assert responses == [b"+OK\r\n", b":1\r\n", b":0\r\n", b"$-1\r\n"]
    assert image.call("redis", "dbsize") == 0


def test_del_frees_heap(image):
    allocator = image.compartment_of("redis").allocator
    run_requests(image, [cmd(b"SET", b"big", b"x" * 512)])
    in_use = allocator.bytes_in_use
    run_requests(image, [cmd(b"DEL", b"big")])
    assert allocator.bytes_in_use < in_use


def test_exists(image):
    responses = run_requests(
        image,
        [cmd(b"EXISTS", b"k"), cmd(b"SET", b"k", b"v"), cmd(b"EXISTS", b"k")],
    )
    assert responses == [b":0\r\n", b"+OK\r\n", b":1\r\n"]


def test_incr_from_nothing_and_existing(image):
    responses = run_requests(
        image,
        [
            cmd(b"INCR", b"counter"),
            cmd(b"INCR", b"counter"),
            cmd(b"GET", b"counter"),
        ],
    )
    assert responses == [b":1\r\n", b":2\r\n", b"$1\r\n2\r\n"]
    # Many increments cross a digit-length boundary correctly.
    responses = run_requests(image, [cmd(b"INCR", b"counter")] * 10)
    assert responses[-1] == b":12\r\n"
    assert image.lib("redis").value_of(b"counter") == b"12"


def test_incr_non_numeric_errors(image):
    responses = run_requests(
        image, [cmd(b"SET", b"word", b"hello"), cmd(b"INCR", b"word")]
    )
    assert responses == [b"+OK\r\n", b"-ERR\r\n"]
    # The old value is untouched.
    assert image.lib("redis").value_of(b"word") == b"hello"


def test_append_builds_strings(image):
    responses = run_requests(
        image,
        [
            cmd(b"APPEND", b"log", b"first"),
            cmd(b"APPEND", b"log", b"|second"),
            cmd(b"GET", b"log"),
        ],
    )
    assert responses == [b":5\r\n", b":12\r\n", b"$12\r\nfirst|second\r\n"]


def test_append_bad_args(image):
    responses = run_requests(image, [cmd(b"APPEND", b"onlykey")])
    assert responses == [b"-ERR\r\n"]


def test_commands_work_under_mpk():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="mpk-shared",
        )
    )
    responses = run_requests(
        image,
        [
            cmd(b"SET", b"a", b"x"),
            cmd(b"INCR", b"n"),
            cmd(b"APPEND", b"a", b"y"),
            cmd(b"EXISTS", b"a"),
            cmd(b"DEL", b"a"),
        ],
    )
    assert responses == [b"+OK\r\n", b":1\r\n", b":2\r\n", b":1\r\n", b":1\r\n"]
