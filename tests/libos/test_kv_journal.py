"""``kv.journal`` under attack: the export parses bytes another
compartment wrote (hypothesis).

The caller is the redis compartment, crossing the real gate into kv.
Every call must either append every entry of its ``n`` bytes, or raise
:class:`GateError` having appended nothing: no seq taken, and the
keydir, the blk write-back cache and the medium unchanged.  On cheri
the caller's buffer is private, so kv reaches it only through the
gate's delegation, which must be exactly ``[buf, buf + n)``.
"""

from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import BuildConfig, build_image
from repro.libos.blk.blkdev import DiskMedium
from repro.libos.kv.store import (
    JOURNAL_DELETE,
    JOURNAL_ENTRY,
    MAX_JOURNAL,
    MAX_KEY,
    MAX_VALUE,
)
from repro.machine.capabilities import CapabilitySet
from repro.machine.faults import GateError


def encode(flags: int, key: bytes, value: bytes, vlen: int | None = None) -> bytes:
    vlen = len(value) if vlen is None else vlen
    return JOURNAL_ENTRY.pack(flags, len(key), vlen) + key + value


def reference_entries(raw: bytes) -> list | None:
    """The entries ``raw`` holds, or None when it is malformed."""
    entries, offset = [], 0
    while offset < len(raw):
        if offset + JOURNAL_ENTRY.size > len(raw):
            return None
        flags, klen, vlen = JOURNAL_ENTRY.unpack_from(raw, offset)
        start = offset + JOURNAL_ENTRY.size
        offset = start + klen + vlen
        if flags not in (0, JOURNAL_DELETE) or (flags and vlen):
            return None
        if not 1 <= klen <= MAX_KEY or vlen > MAX_VALUE or offset > len(raw):
            return None
        entries.append((raw[start : start + klen], raw[start + klen : offset], flags))
    return entries


KEYS = st.binary(min_size=1, max_size=6)
GOOD = st.one_of(
    st.builds(lambda key, value: encode(0, key, value), KEYS, st.binary(max_size=48)),
    st.builds(lambda key: encode(JOURNAL_DELETE, key, b""), KEYS),
)
BAD = st.one_of(
    st.builds(lambda value: encode(0, b"", value), st.binary(max_size=8)),
    st.builds(lambda value: encode(0, b"k" * (MAX_KEY + 1), value), st.binary(max_size=8)),
    st.builds(lambda key: encode(0, key, b"v" * (MAX_VALUE + 1)), KEYS),
    st.builds(lambda flags, key: encode(flags, key, b""), st.integers(2, 255), KEYS),
    st.builds(
        lambda key, value: encode(JOURNAL_DELETE, key, value),
        KEYS,
        st.binary(min_size=1, max_size=8),
    ),
    # Lengths that run past the end of the buffer.
    st.builds(lambda key, vlen: encode(0, key, b"", vlen), KEYS, st.integers(1, MAX_VALUE)),
)


@st.composite
def journal_calls(draw):
    """``(bytes written to the buffer, n)``."""
    entries = draw(st.lists(GOOD, max_size=6))
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(BAD))
    data = b"".join(entries)
    n = draw(
        st.one_of(
            st.just(len(data)),
            st.integers(-2, len(data)),  # truncated, empty or negative
            st.integers(len(data), len(data) + 64),  # past the written bytes
            st.integers(MAX_JOURNAL + 1, 4 * MAX_JOURNAL),  # past the bound
        )
    )
    return data, n


class World:
    """A durable redis image whose redis compartment calls kv.journal."""

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.medium = DiskMedium()
        self.image = build_image(
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
        self.image.lib("blk").attach_medium(self.medium)
        self.image.call("kv", "set_flush_policy", "every-write")
        self.kv = self.image.lib("kv")
        self.blk = self.image.lib("blk")
        redis = self.image.lib("redis")
        self.space = redis.compartment.address_space
        self.context = redis.compartment.make_context(label="fuzz:redis")
        self.stub = redis.stub("kv")
        # Private to redis on cheri, where only the delegation reaches it.
        allocate = "malloc" if backend == "cheri" else "malloc_shared"
        self.buf = self.image.call("alloc", allocate, 2 * MAX_JOURNAL)
        self.read_buf = self.image.call("alloc", "malloc_shared", MAX_VALUE)
        self.image.call("kv", "sync")  # open the store

    def state(self) -> tuple:
        kv, blk = self.kv, self.blk
        return (
            kv._seq,
            dict(kv._keydir),
            kv.puts,
            kv.deletes,
            {sector: blk.cache_payload(sector) for sector in blk._cache},
            list(blk._dirty),
            dict(self.medium.sectors),
        )

    def journal(self, data: bytes, n: int):
        # Stale bytes past the data would make ``n`` overshoot into a
        # previous example's entries; zero them.
        self.image.machine.dma_write(
            self.space, self.buf, data + bytes(2 * MAX_JOURNAL - len(data))
        )
        grants = []
        grant = CapabilitySet.grant

        def recording(caps, start, size, writable=True):
            grants.append((start, size))
            return grant(caps, start, size, writable)

        cpu = self.image.machine.cpu
        cpu.push_context(self.context)
        try:
            with mock.patch.object(CapabilitySet, "grant", recording):
                return self.stub.call("journal", self.buf, n)
        finally:
            cpu.pop_context()
            if self.backend == "cheri":
                assert grants[0] == (self.buf, n)

    def value(self, key: bytes) -> bytes | None:
        length = self.image.call("kv", "get", key, self.read_buf)
        if length < 0:
            return None
        return self.image.machine.dma_read(self.space, self.read_buf, length)


WORLDS: dict[str, World] = {}


@pytest.mark.parametrize("backend", ["mpk-shared", "cheri"])
@settings(max_examples=100, deadline=None)
@given(call=journal_calls())
def test_journal_appends_every_entry_or_nothing(backend, call):
    world = WORLDS.get(backend) or WORLDS.setdefault(backend, World(backend))
    data, n = call
    raw = (data + bytes(max(0, n - len(data))))[:n] if 0 < n <= MAX_JOURNAL else None
    expected = reference_entries(raw) if raw else None
    before = world.state()
    try:
        appended = world.journal(data, n)
    except GateError:
        assert expected is None
        assert world.state() == before
        event("rejected")
        return
    assert expected is not None and appended == len(expected)
    event("appended %d" % min(appended, 2))
    assert world.kv._seq == before[0] + len(expected)
    latest = {}
    for key, value, flags in expected:
        latest[key] = None if flags else value
    for key, value in latest.items():
        assert world.value(key) == value
