"""RESP2 framing edge cases and the RESP-driven rediserver.

Satellite coverage: frames split at every byte boundary across recv
calls, pipelined command bursts, oversized bulk strings rejected with a
typed error — plus the end-to-end path (an external-style RESP client
driving the server over the simulated wire) and the INCR/APPEND
durability regression (an acked INCR survives crash→recover).
"""

from collections import deque

import pytest

from repro import BuildConfig, build_image
from repro.apps import ClosedLoopSource, resp, start_redis
from repro.apps.workload import run_redis_phase
from repro.libos.blk.blkdev import DiskMedium
from repro.libos.net.packet import build_packet, unpack_header

# --- pure framing: encoding ---------------------------------------------------


def test_encode_command_bulk_array():
    frame = resp.encode_command(b"SET", "key0", 42)
    assert frame == b"*3\r\n$3\r\nSET\r\n$4\r\nkey0\r\n$2\r\n42\r\n"


def test_encode_reply_helpers():
    assert resp.encode_simple(b"OK") == b"+OK\r\n"
    assert resp.encode_error(b"ERR nope") == b"-ERR nope\r\n"
    assert resp.encode_integer(-7) == b":-7\r\n"
    assert resp.encode_bulk(b"hi") == b"$2\r\nhi\r\n"
    assert resp.encode_bulk(None) == b"$-1\r\n"


# --- pure framing: request parsing -------------------------------------------


def test_parse_array_split_at_every_byte_boundary():
    frame = resp.encode_command(b"SET", b"key", b"value-bytes")
    for cut in range(len(frame)):
        assert resp.parse_array(frame[:cut]) is None, cut
    args, offsets, consumed = resp.parse_array(frame)
    assert args == [b"SET", b"key", b"value-bytes"]
    assert consumed == len(frame)
    # Offsets point at the argument bytes inside the parsed buffer
    # (the zero-copy contract the server's journal path relies on).
    for arg, offset in zip(args, offsets):
        assert frame[offset : offset + len(arg)] == arg


def test_parse_array_pipelined_burst():
    frames = [
        resp.encode_command(b"SET", b"k%d" % index, b"v%d" % index)
        for index in range(20)
    ] + [resp.encode_command(b"GET", b"k3")]
    raw = b"".join(frames)
    pos = 0
    parsed = []
    while pos < len(raw):
        args, _, pos = resp.parse_array(raw, pos)
        parsed.append(args)
    assert len(parsed) == 21
    assert parsed[0] == [b"SET", b"k0", b"v0"]
    assert parsed[-1] == [b"GET", b"k3"]


def test_parse_array_oversized_bulk_rejected_with_typed_error():
    with pytest.raises(resp.RespError, match="exceeds"):
        resp.parse_array(
            resp.encode_command(b"SET", b"k", b"x" * 128), max_bulk=64
        )
    # Rejected from the header alone — before the payload even arrives.
    with pytest.raises(resp.RespError, match="exceeds"):
        resp.parse_array(b"*2\r\n$3\r\nSET\r\n$999999\r\n")


def test_parse_array_malformed_frames_raise():
    with pytest.raises(resp.RespError, match="bad length header"):
        resp.parse_array(b"*x\r\n")
    with pytest.raises(resp.RespError, match="element count"):
        resp.parse_array(b"*0\r\n")
    with pytest.raises(resp.RespError, match="null bulk"):
        resp.parse_array(b"*1\r\n$-1\r\n")
    with pytest.raises(resp.RespError, match="not CRLF-terminated"):
        resp.parse_array(b"*1\r\n$2\r\nabXX")
    with pytest.raises(resp.RespError, match="unterminated"):
        resp.parse_array(b"*1" + b"1" * 40)


# --- pure framing: reply parsing ---------------------------------------------

_REPLY_STREAM = (
    b"+OK\r\n"
    b":42\r\n"
    b"$5\r\nhello\r\n"
    b"$-1\r\n"
    b"-ERR boom\r\n"
    b"*2\r\n$1\r\na\r\n:7\r\n"
    b"$0\r\n\r\n"
)
_REPLY_VALUES = [
    b"OK",
    42,
    b"hello",
    None,
    resp.ErrorReply(b"ERR boom"),
    [b"a", 7],
    b"",
]


def test_reply_parser_single_feed():
    parser = resp.ReplyParser()
    assert parser.feed(_REPLY_STREAM) == _REPLY_VALUES
    assert parser.pending_bytes == 0


def test_reply_parser_byte_at_a_time():
    parser = resp.ReplyParser()
    replies = []
    for index in range(len(_REPLY_STREAM)):
        replies.extend(parser.feed(_REPLY_STREAM[index : index + 1]))
    assert replies == _REPLY_VALUES
    assert parser.pending_bytes == 0


def test_reply_parser_split_at_every_boundary():
    for cut in range(len(_REPLY_STREAM) + 1):
        parser = resp.ReplyParser()
        replies = parser.feed(_REPLY_STREAM[:cut])
        replies.extend(parser.feed(_REPLY_STREAM[cut:]))
        assert replies == _REPLY_VALUES, cut


def test_reply_parser_oversized_bulk_rejected():
    parser = resp.ReplyParser(max_bulk=16)
    with pytest.raises(resp.RespError, match="exceeds"):
        parser.feed(b"$1024\r\n")


# --- the server end to end ---------------------------------------------------


def _volatile_image():
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "redis"],
            compartments=[["netstack"], ["sched", "alloc", "libc", "redis"]],
            backend="none",
        )
    )


def _drive_raw(image, chunks, expect_replies, port=6379):
    """Push raw byte chunks at the server; collect raw reply payloads.

    Unlike :class:`ClosedLoopSource` this does not pair requests with
    replies, so a single command may be split across many packets (and
    therefore across many server ``recv`` calls).
    """
    netstack = image.lib("netstack")
    queue = deque(chunks)
    replies = []
    state = {"seq": 0}

    def source():
        if not queue:
            return None
        payload = queue.popleft()
        packet = build_packet(port, payload, seq=state["seq"])
        state["seq"] += len(payload)
        return packet

    def sink(frame):
        header = unpack_header(frame)
        replies.append(frame[16 : 16 + header.length])

    netstack.nic.rx_source = source
    netstack.nic.tx_sink = sink
    image.run(
        until=lambda: len(replies) >= expect_replies, max_switches=500_000
    )
    assert len(replies) >= expect_replies
    return replies


def test_resp_commands_end_to_end():
    image = _volatile_image()
    start_redis(image)
    commands = [
        resp.encode_command(b"PING"),
        resp.encode_command(b"SET", b"color", b"blue"),
        resp.encode_command(b"GET", b"color"),
        resp.encode_command(b"EXISTS", b"color"),
        resp.encode_command(b"INCR", b"hits"),
        resp.encode_command(b"INCR", b"hits"),
        resp.encode_command(b"APPEND", b"color", b"-sky"),
        resp.encode_command(b"GET", b"color"),
        resp.encode_command(b"DEL", b"color"),
        resp.encode_command(b"GET", b"color"),
        resp.encode_command(b"BOGUS", b"x"),
    ]
    raw_replies = _drive_raw(image, commands, len(commands))
    parser = resp.ReplyParser()
    values = parser.feed(b"".join(raw_replies))
    assert values == [
        b"PONG",
        b"OK",
        b"blue",
        1,
        1,
        2,
        8,
        b"blue-sky",
        1,
        None,
        resp.ErrorReply(b"ERR"),
    ]


def test_resp_frames_split_across_recv_calls():
    """Every split point of a command parses once the rest arrives."""
    image = _volatile_image()
    start_redis(image)
    chunks = []
    count = 0
    probe = resp.encode_command(b"SET", b"kXX", b"val")
    for cut in range(1, len(probe)):
        frame = resp.encode_command(b"SET", b"k%02d" % (cut % 50), b"val")
        chunks.append(frame[:cut])
        chunks.append(frame[cut:])
        count += 1
    raw_replies = _drive_raw(image, chunks, count)
    assert b"".join(raw_replies) == b"+OK\r\n" * count


def test_resp_pipelined_burst_single_packet():
    image = _volatile_image()
    start_redis(image)
    burst = b"".join(
        resp.encode_command(b"SET", b"p%d" % index, b"v") for index in range(8)
    ) + b"".join(
        resp.encode_command(b"GET", b"p%d" % index) for index in range(8)
    )
    raw_replies = _drive_raw(image, [burst], 16)
    values = resp.ReplyParser().feed(b"".join(raw_replies))
    assert values == [b"OK"] * 8 + [b"v"] * 8


def _exchange(image, payloads):
    """Send ``payloads`` one at a time (window 1); the reply to each."""
    source = ClosedLoopSource(6379, payloads, window=1)
    replies = []
    netstack = image.lib("netstack")
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = lambda frame: (
        source.sink(frame),
        replies.append(source.last_response),
    )
    image.run(until=lambda: source.done, max_switches=100_000)
    assert source.done
    return replies


def test_non_resp_request_is_a_protocol_error():
    """A buffer whose first byte is not ``*`` is one malformed frame:
    one ``-ERR``, nothing executed, and the stream keeps serving RESP."""
    image = _volatile_image()
    start_redis(image)
    assert _exchange(image, [b"SET k 1\nx"]) == [b"-ERR\r\n"]
    stats = image.call("redis", "redis_stats")
    assert stats["errors"] == 1
    assert stats["sets"] == 0
    assert image.call("redis", "dbsize") == 0
    assert image.lib("redis").value_of(b"k") is None

    replies = _exchange(
        image,
        [
            resp.encode_command(b"SET", b"k", b"v"),
            resp.encode_command(b"GET", b"k"),
        ],
    )
    assert replies == [b"+OK\r\n", b"$1\r\nv\r\n"]
    assert image.call("redis", "redis_stats")["errors"] == 1


def test_oversized_resp_command_gets_typed_error_reply():
    image = _volatile_image()
    start_redis(image)
    # Claims a bulk bigger than the server will ever buffer: rejected
    # from the header, buffer drained, one -ERR back.
    raw_replies = _drive_raw(image, [b"*2\r\n$3\r\nGET\r\n$40000\r\n"], 1)
    assert raw_replies[0] == b"-ERR\r\n"
    stats = image.call("redis", "redis_stats")
    assert stats["errors"] == 1


def test_closed_loop_workload_speaks_resp():
    from repro.apps.workload import make_get_payloads, make_set_payloads

    image = _volatile_image()
    start_redis(image)
    sets = run_redis_phase(
        image, make_set_payloads(12, 24, keyspace=6), expect_prefix=b"+OK\r\n"
    )
    assert sets.requests == 12
    gets = run_redis_phase(
        image, make_get_payloads(12, 6), expect_prefix=b"$24\r\n"
    )
    assert gets.requests == 12


# --- satellite regression: acked INCR/APPEND survive crash→recover -----------


def _build_durable(medium):
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk", "kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend="none",
        )
    )
    image.lib("blk").attach_medium(medium)
    image.call("kv", "set_flush_policy", "every-write")
    return image


def test_acked_incr_survives_crash_recover():
    medium = DiskMedium()
    image = _build_durable(medium)
    start_redis(image)
    run_redis_phase(
        image,
        [resp.encode_command(b"INCR", b"counter") for _ in range(3)],
        expect_prefix=b":",
    )
    assert image.call("redis", "redis_stats")["kv_writes"] == 3

    # "Crash": abandon the image, reboot against the same medium.
    fresh = _build_durable(medium)
    report = fresh.call("redis", "recover")
    assert report["durable"] is True
    assert fresh.lib("redis").value_of(b"counter") == b"3"


def test_acked_append_survives_crash_recover():
    medium = DiskMedium()
    image = _build_durable(medium)
    start_redis(image)
    run_redis_phase(
        image,
        [
            resp.encode_command(b"APPEND", b"log", b"one,"),
            resp.encode_command(b"APPEND", b"log", b"two"),
        ],
        expect_prefix=b":",
    )

    fresh = _build_durable(medium)
    fresh.call("redis", "recover")
    assert fresh.lib("redis").value_of(b"log") == b"one,two"


def test_incr_after_recovery_continues_sequence():
    medium = DiskMedium()
    image = _build_durable(medium)
    start_redis(image)
    run_redis_phase(
        image,
        [resp.encode_command(b"INCR", b"seq") for _ in range(2)],
        expect_prefix=b":",
    )

    fresh = _build_durable(medium)
    fresh.call("redis", "recover")
    start_redis(fresh)
    run_redis_phase(
        fresh, [resp.encode_command(b"INCR", b"seq")], expect_prefix=b":3\r\n"
    )
    assert fresh.lib("redis").value_of(b"seq") == b"3"
