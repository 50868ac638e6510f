"""RESP2 wire framing (REdis Serialization Protocol, version 2).

The protocol external redis clients actually speak: a request is an
array of bulk strings (``*2\\r\\n$3\\r\\nGET\\r\\n$5\\r\\nhello\\r\\n``),
a reply is a simple string (``+OK``), error (``-ERR ...``), integer
(``:42``), bulk string (``$5\\r\\nhello``), null bulk (``$-1``), or an
array of replies.

Two consumers share this module:

- the **server** (:mod:`repro.apps.rediserver`) parses request arrays
  straight out of its shared receive buffer with :func:`parse_array` —
  offsets of every bulk argument inside the parsed buffer are returned
  alongside the bytes, so a SET value can be journaled zero-copy from
  the buffer it already sits in — and frames its replies with
  :func:`encode_simple`, :func:`encode_error`, :func:`encode_integer`
  and :data:`NULL_BULK`;
- **clients** (the workload generator, the cluster smart client, the
  framing tests) encode commands with :func:`encode_command` and parse
  reply streams incrementally with :class:`ReplyParser`.

Both sides are proper byte-stream parsers: a frame split at *any* byte
boundary across ``recv`` calls resumes cleanly, and pipelined bursts
parse into as many complete frames as the buffer holds.  Malformed or
oversized frames raise the typed :class:`RespError` instead of being
silently mangled — a protocol error is an observable event, not a
corrupt store.
"""

from __future__ import annotations

#: Default upper bound on one bulk string's declared length.  A frame
#: claiming more is rejected with :class:`RespError` before any bytes
#: are buffered for it (the classic unbounded-allocation DoS guard).
MAX_BULK = 64 * 1024
#: Upper bound on a request array's element count.
MAX_ARRAY = 128

CRLF = b"\r\n"
NULL_BULK = b"$-1\r\n"


class RespError(Exception):
    """Typed RESP protocol error (malformed or oversized frame)."""

    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)


# --- encoding ---------------------------------------------------------------


def _as_bytes(arg) -> bytes:
    if isinstance(arg, bytes):
        return arg
    if isinstance(arg, str):
        return arg.encode()
    if isinstance(arg, int):
        return b"%d" % arg
    raise TypeError(f"cannot encode {type(arg).__name__} as a bulk string")


def encode_command(*args) -> bytes:
    """One request: an array of bulk strings (bytes/str/int args)."""
    if not args:
        raise ValueError("a RESP command needs at least one argument")
    parts = [b"*%d\r\n" % len(args)]
    for arg in args:
        data = _as_bytes(arg)
        parts.append(b"$%d\r\n" % len(data))
        parts.append(data)
        parts.append(CRLF)
    return b"".join(parts)


def encode_simple(text: bytes) -> bytes:
    return b"+" + text + CRLF


def encode_error(text: bytes) -> bytes:
    return b"-" + text + CRLF


def encode_integer(value: int) -> bytes:
    return b":%d\r\n" % value


def encode_bulk(data: bytes | None) -> bytes:
    if data is None:
        return NULL_BULK
    return b"$%d\r\n" % len(data) + data + CRLF


# --- request parsing (server side) ------------------------------------------


def _parse_length(raw: bytes, pos: int, marker: int) -> tuple[int, int] | None:
    """Parse ``<marker><digits>\\r\\n`` at ``pos``; (value, next_pos).

    Returns ``None`` when the line is not complete yet; raises
    :class:`RespError` on a malformed header.
    """
    if pos >= len(raw):
        return None
    if raw[pos] != marker:
        raise RespError(
            f"expected {chr(marker)!r} header, got {raw[pos:pos + 1]!r}"
        )
    end = raw.find(CRLF, pos + 1)
    if end < 0:
        if len(raw) - pos > 32:
            # No terminator within any legal header length.
            raise RespError("unterminated length header")
        return None
    digits = raw[pos + 1 : end]
    body = digits[1:] if digits[:1] == b"-" else digits
    if not body or not body.isdigit():
        raise RespError(f"bad length header {digits!r}")
    return int(digits), end + 2


def parse_array(
    raw: bytes, pos: int = 0, max_bulk: int = MAX_BULK
) -> tuple[list[bytes], list[int], int] | None:
    """Parse one request array at ``pos`` of ``raw``.

    Returns ``(args, offsets, next_pos)`` where ``offsets[i]`` is the
    position of ``args[i]``'s first byte inside ``raw`` (for zero-copy
    consumers), or ``None`` when the frame is incomplete — feed more
    bytes and retry from the same ``pos``.  Raises :class:`RespError`
    on malformed frames and on bulk strings longer than ``max_bulk``.
    """
    head = _parse_length(raw, pos, ord("*"))
    if head is None:
        return None
    count, pos = head
    if count < 1 or count > MAX_ARRAY:
        raise RespError(f"bad array element count {count}")
    args: list[bytes] = []
    offsets: list[int] = []
    for _ in range(count):
        bulk = _parse_length(raw, pos, ord("$"))
        if bulk is None:
            return None
        length, pos = bulk
        if length < 0:
            raise RespError("null bulk string in a request")
        if length > max_bulk:
            raise RespError(f"bulk string of {length} bytes exceeds {max_bulk}")
        if pos + length + 2 > len(raw):
            return None  # bulk payload (or its CRLF) not fully received
        if raw[pos + length : pos + length + 2] != CRLF:
            raise RespError("bulk string not CRLF-terminated")
        args.append(raw[pos : pos + length])
        offsets.append(pos)
        pos += length + 2
    return args, offsets, pos


# --- reply parsing (client side) --------------------------------------------


class ErrorReply:
    """An ``-ERR ...`` reply, as a value (not raised: protocol data)."""

    __slots__ = ("message",)

    def __init__(self, message: bytes) -> None:
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ErrorReply({self.message!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ErrorReply) and other.message == self.message

    def __hash__(self) -> int:
        return hash((ErrorReply, self.message))


def parse_reply(
    raw: bytes, pos: int = 0, max_bulk: int = MAX_BULK
) -> tuple[object, int] | None:
    """Parse one reply at ``pos``; ``(value, next_pos)`` or ``None``.

    Simple strings and bulk strings parse to ``bytes``, errors to
    :class:`ErrorReply`, integers to ``int``, null bulks to ``None``
    (wrapped in the tuple), arrays to ``list``.
    """
    if pos >= len(raw):
        return None
    marker = raw[pos]
    if marker in (ord("+"), ord("-")):
        end = raw.find(CRLF, pos + 1)
        if end < 0:
            return None
        line = raw[pos + 1 : end]
        value = ErrorReply(line) if marker == ord("-") else line
        return value, end + 2
    if marker == ord(":"):
        head = _parse_length(raw, pos, ord(":"))
        if head is None:
            return None
        return head
    if marker == ord("$"):
        head = _parse_length(raw, pos, ord("$"))
        if head is None:
            return None
        length, body = head
        if length == -1:
            return None, body
        if length < 0:
            raise RespError(f"bad bulk length {length}")
        if length > max_bulk:
            raise RespError(f"bulk reply of {length} bytes exceeds {max_bulk}")
        if body + length + 2 > len(raw):
            return None
        if raw[body + length : body + length + 2] != CRLF:
            raise RespError("bulk reply not CRLF-terminated")
        return raw[body : body + length], body + length + 2
    if marker == ord("*"):
        head = _parse_length(raw, pos, ord("*"))
        if head is None:
            return None
        count, cursor = head
        if count == -1:
            return None, cursor
        if count < 0:
            raise RespError(f"bad array count {count}")
        items = []
        for _ in range(count):
            parsed = parse_reply(raw, cursor, max_bulk)
            if parsed is None:
                return None
            value, cursor = parsed
            items.append(value)
        return items, cursor
    raise RespError(f"unknown reply marker {raw[pos:pos + 1]!r}")


class ReplyParser:
    """Incremental reply-stream parser (the client's receive side).

    Feed arbitrary byte chunks (packet payloads, single bytes); get
    back every reply completed so far.  State between feeds is just
    the unconsumed byte tail, so frames may split anywhere.
    """

    def __init__(self, max_bulk: int = MAX_BULK) -> None:
        self._buffer = b""
        self.max_bulk = max_bulk

    def feed(self, data: bytes) -> list[object]:
        self._buffer += data
        replies: list[object] = []
        pos = 0
        while True:
            parsed = parse_reply(self._buffer, pos, self.max_bulk)
            if parsed is None:
                break
            value, pos = parsed
            replies.append(value)
        self._buffer = self._buffer[pos:]
        return replies

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)
