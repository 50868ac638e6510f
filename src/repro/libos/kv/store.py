"""The ``kv`` micro-library: a bitcask-style log-structured KV store.

Layered on the ``blk`` micro-library, in the architecture Bitcask made
canonical (Sheehy & Smith, 2010):

- every put/delete *appends* a CRC-framed record to the active segment;
- an in-memory **keydir** maps each key to its latest record's location;
- sealed segments get **hint files** (compact keydir snapshots) so
  recovery can rebuild the keydir without scanning the data;
- a size-triggered **compaction/merge** rewrites live records into
  fresh segments and drops superseded ones.

Durability contract: a record is durable once a ``blk_flush`` barrier
completes after its append.  The flush policy (``every-write`` or
``batch:N``) decides when that happens; ``sync()`` forces it.  After a
crash, recovery replays the manifest's segments in order, discards any
torn record at first CRC mismatch (everything behind a torn record in
a log segment is unreachable, by construction), and rebuilds the
keydir — so *every* flushed-acknowledged write is readable again and
*no* torn record ever surfaces to a reader.

On-disk layout (sector-addressed through ``blk``)::

    sector 0,1          dual manifest (crc32 | gen | count | end | seq
                        | slot ids); the valid manifest with the highest
                        generation wins, writes alternate between the
                        two sectors
    per slot i          2 + i*(SEG_SECTORS+HINT_SECTORS) ... data
                        sectors, then HINT_SECTORS of hint records

Record framing: ``crc32(4) seq(8) klen(2) vlen(4) flags(1) key value``
with the CRC covering everything after itself.  ``flags`` bit 0 marks
a tombstone.  ``seq`` is a store-wide monotonic counter, so replay
order is well-defined even across merged segments.  Records may cross
sector boundaries, but a header never starts in a sector's last
``_HDR.size - 1`` bytes: writers zero-fill them, and the scanner skips
them.  Slots are reused after a merge, so a slot can hold CRC-valid
records of its previous life past its current data; the manifest's
``end`` (the active slot's data end at commit) and ``seq`` (no record
written before the commit is above it) fence them off: past ``end``,
the scan accepts only records above ``seq``.  Recovery commits a new
fence past every seq an unflushed orphan behind a dropped sector can
hold, so a later scan ignores such orphans too.

The declared FlexOS metadata is conservative (like the filesystem's):
unhardened C storage engines cannot bound their behaviour.  The
``[Requires]`` clause protects the keydir the way the allocator
protects its heap headers: compartment neighbours may read but never
write kv memory, and control may only enter through the API.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

from repro.libos.library import MicroLibrary, export
from repro.machine.faults import GateError, MachineError

from repro.libos.blk.blkdev import SECTOR_SIZE

#: Largest value a journal entry may carry (one record must fit
#: comfortably inside a segment).
MAX_VALUE = 4096
#: Largest key a journal entry may carry.
MAX_KEY = 1024
#: Largest buffer accepted by :meth:`KVStoreLibrary.journal`.
MAX_JOURNAL = 2 * MAX_VALUE

#: Record header: crc32 | seq | klen | vlen | flags.
_HDR = struct.Struct(">IQHIB")
#: Hint entry header: seq | offset | rec_len | flags | klen.
_HINT_ENTRY = struct.Struct(">QIIBH")
#: Manifest header: crc32 | gen | count | active end | seq fence.
_MANIFEST = struct.Struct(">IQHIQ")

_TOMBSTONE = 0x01
#: Padding record (fills a sector's tail at a flush barrier; never
#: enters the keydir).
_PAD = 0x02

#: One :meth:`KVStoreLibrary.journal` entry: flags | klen | vlen, then
#: the key and the value.  The only flag is :data:`JOURNAL_DELETE`; a
#: delete entry carries no value.
JOURNAL_ENTRY = struct.Struct(">BHI")
JOURNAL_DELETE = _TOMBSTONE


class RecordError(MachineError):
    """A stored record failed its CRC or framing check on read."""


@dataclasses.dataclass(frozen=True)
class _KeyDirEntry:
    """Latest known location of one key."""

    slot: int
    offset: int
    rec_len: int
    seq: int
    flags: int

    @property
    def tombstone(self) -> bool:
        return bool(self.flags & _TOMBSTONE)


#: Record body header (the :data:`_HDR` layout minus the leading crc32)
#: and the crc32 prefix itself, precompiled — ``_encode_record`` runs
#: once per put/delete/pad on the data path.
_HDR_BODY = struct.Struct(">QHIB")
_CRC = struct.Struct(">I")


def _encode_record(key: bytes, value: bytes, seq: int, flags: int) -> bytes:
    body = _HDR_BODY.pack(seq, len(key), len(value), flags) + key + value
    return _CRC.pack(zlib.crc32(body)) + body


def _parse_journal(data: bytes) -> list[tuple[bytes, bytes, int]]:
    """``(key, value, flags)`` of every entry in a journal buffer.

    Raises :class:`GateError` unless ``data`` is exactly a sequence of
    well-formed :data:`JOURNAL_ENTRY` entries.
    """
    entries = []
    offset = 0
    while offset < len(data):
        if offset + JOURNAL_ENTRY.size > len(data):
            raise GateError(f"kv: journal entry at {offset} truncated")
        flags, klen, vlen = JOURNAL_ENTRY.unpack_from(data, offset)
        start = offset + JOURNAL_ENTRY.size
        offset = start + klen + vlen
        if flags not in (0, JOURNAL_DELETE) or (flags and vlen):
            raise GateError(f"kv: bad journal entry flags {flags:#x}")
        if not 1 <= klen <= MAX_KEY:
            raise GateError(f"kv: key must be 1..{MAX_KEY} bytes")
        if vlen > MAX_VALUE:
            raise GateError(f"kv: value length {vlen} out of range")
        if offset > len(data):
            raise GateError(f"kv: journal entry at {start} truncated")
        entries.append((data[start : start + klen], data[start + klen : offset], flags))
    return entries


def _header_gap(offset: int) -> int:
    """Zero bytes a writer skips before a record header at ``offset``.

    None, unless fewer than a header's bytes are left in the sector: the
    scanner reads those as zero-fill and resumes at the next sector, so
    no header may start there.  A header that straddles the boundary
    can begin with zero bytes, so the rule lives in the writers.
    """
    room = SECTOR_SIZE - offset % SECTOR_SIZE
    return room if room < _HDR.size else 0


class KVStoreLibrary(MicroLibrary):
    """Bitcask-style store over the ``blk`` micro-library."""

    NAME = "kv"
    SPEC = """
    [Memory access] Read(*); Write(*)
    [Call] *
    [API] get(key, buf); journal(buf, n); sync(); compact(); recover(); \
set_flush_policy(policy); kv_keys(); kv_stats()
    [Requires] *(Read,Own), *(Write,Shared), *(Call, get), \
*(Call, journal), *(Call, sync), *(Call, compact), *(Call, recover), \
*(Call, set_flush_policy), *(Call, kv_keys), *(Call, kv_stats)
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": [
            "alloc::malloc",
            "alloc::free",
            "alloc::malloc_shared",
            "alloc::free_shared",
            "blk::blk_info",
            "blk::blk_read",
            "blk::blk_write",
            "blk::blk_flush",
        ],
    }
    API_CONTRACTS = {
        "journal": [
            (
                lambda args: 0 < args[1] <= MAX_JOURNAL,
                f"journal length must be in [1, {MAX_JOURNAL}]",
            ),
        ],
    }
    POINTER_PARAMS = {"get": (1,), "journal": (0,)}
    CAP_GRANTS = {
        "get": ((1, -MAX_VALUE),),
        "journal": ((0, 1),),
    }

    #: Segment slots on the medium (manifest lists the live subset).
    NUM_SLOTS = 8
    #: Data sectors per slot (segment capacity = SEG_SECTORS * 512).
    SEG_SECTORS = 32
    #: Hint sectors per slot; an oversized hint is simply not written
    #: (recovery falls back to a scan).
    HINT_SECTORS = 16
    #: Sealed-slot count that triggers an automatic merge on seal.
    COMPACT_THRESHOLD = 5
    #: Write staging buffers cycled by the append path.  Each in-flight
    #: ``blk_write`` submission holds one buffer until the channel
    #: flushes, so with a batched (queue) blk channel the ring lets a
    #: whole batch stay queued without any buffer being rewritten under
    #: a pending submission.
    STAGING_BUFS = 16

    def __init__(self) -> None:
        super().__init__()
        self._blk = None
        self._alloc = None
        self._staging = 0  # shared sector buffer for blk *reads*
        self._write_bufs: list[int] = []  # staging ring for blk writes
        self._write_seq = 0
        self._open = False
        self._keydir: dict[bytes, _KeyDirEntry] = {}
        #: Append-order record metadata per live slot (hint source):
        #: slot → list of (key, seq, offset, rec_len, flags).
        self._slot_records: dict[int, list] = {}
        self._slots: list[int] = [0]
        self._gen = 0
        self._seq = 0
        self._durable_seq = 0
        self._append_offset = 0
        self._tail = bytearray()  # active slot's partial sector (in-place)
        self._flush_policy = "every-write"
        self._batch = 1
        self._unflushed = 0
        self.puts = 0
        self.gets = 0
        self.deletes = 0

    def on_boot(self) -> None:
        self._blk = self.stub("blk")
        self._alloc = self.stub("alloc")

    # --- geometry -----------------------------------------------------------

    @property
    def _seg_bytes(self) -> int:
        return self.SEG_SECTORS * SECTOR_SIZE

    def _slot_base(self, slot: int) -> int:
        return 2 + slot * (self.SEG_SECTORS + self.HINT_SECTORS)

    def _hint_base(self, slot: int) -> int:
        return self._slot_base(slot) + self.SEG_SECTORS

    @property
    def _active(self) -> int:
        return self._slots[-1]

    # --- sector plumbing (all data moves through the blk gate) -------------

    def _buf(self) -> int:
        if not self._staging:
            self._staging = self._alloc.call("malloc_shared", SECTOR_SIZE)
        return self._staging

    def _next_write_buf(self) -> int:
        index = self._write_seq % self.STAGING_BUFS
        self._write_seq += 1
        if index == len(self._write_bufs):
            self._write_bufs.append(
                self._alloc.call("malloc_shared", SECTOR_SIZE)
            )
        return self._write_bufs[index]

    def _drain_blk(self) -> None:
        """Flush queued writes and surface any deferred write error.

        On a synchronous blk channel submissions executed (and raised)
        immediately, so this just empties the completion list; on a
        queue channel it rings the doorbell and re-raises the first
        failed write — the error a sync ``blk_write`` call would have
        raised at append time.
        """
        self._blk.drain()

    def _blk_flush(self) -> None:
        """Drain queued writes, then issue the device flush barrier."""
        self._drain_blk()
        self._blk.call("blk_flush")

    def _write_sector(self, sector: int, payload: bytes) -> None:
        if len(payload) < SECTOR_SIZE:
            payload = payload + b"\x00" * (SECTOR_SIZE - len(payload))
        if self._blk.pending >= self.STAGING_BUFS:
            # Every staging buffer is referenced by an in-flight
            # submission; executing them releases the ring.
            self._drain_blk()
        buf = self._next_write_buf()
        self.machine.store(buf, payload)
        self._blk.submit("blk_write", sector, buf)

    def _read_sector(self, sector: int) -> bytes:
        buf = self._buf()
        self._blk.call("blk_read", sector, buf)
        return self.machine.load(buf, SECTOR_SIZE)

    def _read_span(
        self, base: int, start: int, length: int, sectors: dict | None = None
    ) -> bytes:
        """Read ``length`` bytes at byte ``start`` of a sector region.

        ``sectors`` memoizes sector → bytes across calls: a sector it
        holds is not read from the device again, and every sector read
        joins it.  Without one, each sector of the span is read once.
        """
        if sectors is None:
            sectors = {}
        first, first_off = divmod(start, SECTOR_SIZE)
        span = range(base + first, base + (start + length - 1) // SECTOR_SIZE + 1)
        for sector in span:
            if sector not in sectors:
                sectors[sector] = self._read_sector(sector)
        data = b"".join(sectors[sector] for sector in span)
        return data[first_off : first_off + length]

    # --- manifest -----------------------------------------------------------

    def _commit_manifest(self) -> None:
        """Write the next-generation manifest to the alternate sector."""
        self._gen += 1
        body = struct.pack(
            ">QHIQ", self._gen, len(self._slots), self._append_offset, self._seq
        ) + b"".join(struct.pack(">H", slot) for slot in self._slots)
        payload = struct.pack(">I", zlib.crc32(body)) + body
        self._write_sector(self._gen % 2, payload)

    def _load_manifest(self) -> tuple[int, list[int], int, int] | None:
        """``(gen, slots, active end, seq fence)`` of the newest valid
        manifest; None on a fresh medium."""
        best: tuple[int, list[int], int, int] | None = None
        for sector in (0, 1):
            raw = self._read_sector(sector)
            crc, gen, count, end, fence = _MANIFEST.unpack_from(raw, 0)
            if gen == 0 or count > self.NUM_SLOTS:
                continue
            body_len = _MANIFEST.size - 4 + count * 2
            body = raw[4 : 4 + body_len]
            if zlib.crc32(body) != crc:
                continue
            slots = [
                struct.unpack_from(">H", raw, _MANIFEST.size + 2 * i)[0]
                for i in range(count)
            ]
            if not slots or any(s >= self.NUM_SLOTS for s in slots):
                continue
            if best is None or gen > best[0]:
                best = (gen, slots, end, fence)
        return best

    # --- recovery ------------------------------------------------------------

    def _ensure_open(self) -> None:
        if not self._open:
            self._recover_state()

    def _recover_state(self) -> dict:
        """Rebuild keydir + append state from the medium (boot path)."""
        cpu = self.machine.cpu
        started = cpu.clock_ns
        self._keydir.clear()
        self._slot_records.clear()
        self._seq = 0
        self._append_offset = 0
        self._tail = bytearray()
        torn = 0
        records = 0
        self._gen, self._slots, fence_end, fence_seq = (
            self._load_manifest() or (0, [0], 0, 0)
        )
        injector = self.machine.injector
        for index, slot in enumerate(self._slots):
            if injector is not None:
                injector.on_kv_phase(self, "recovery")
            is_active = index == len(self._slots) - 1
            entries = None
            if not is_active:
                entries = self._read_hint(slot)
                if entries is not None:
                    cpu.bump("kv.hint_hits")
                else:
                    cpu.bump("kv.hint_misses")
            end_offset = self._seg_bytes
            sectors: dict[int, bytes] = {}
            if entries is None:
                entries, slot_torn, end_offset = self._scan_slot(
                    slot, (fence_end, fence_seq) if is_active else None, sectors
                )
                torn += slot_torn
            self._slot_records[slot] = entries
            for key, seq, offset, rec_len, flags in entries:
                records += 1
                self._apply(
                    key, _KeyDirEntry(slot, offset, rec_len, seq, flags)
                )
                self._seq = max(self._seq, seq)
            if is_active:
                self._append_offset = end_offset
                partial = end_offset % SECTOR_SIZE
                if partial:
                    self._tail = bytearray(self._read_span(
                        self._slot_base(slot), end_offset - partial, partial,
                        sectors,
                    ))
        # A crash can drop a sector yet persist a later one, leaving
        # CRC-valid orphans past the recovered end: unflushed records
        # whose seqs, all above the fence, are bounded by the slot's
        # record capacity.  New records take seqs above that bound, and
        # the manifest committed below makes it the fence, so no later
        # scan reads an orphan back or lets one outrank a new record.
        self._seq = max(self._seq, fence_seq + self._seg_bytes // (_HDR.size + 1))
        self._durable_seq = self._seq
        self._unflushed = 0
        self._open = True
        if self._append_offset % SECTOR_SIZE:
            # The recovered log ends mid-sector, so torn/unreachable
            # garbage follows the last good record.  Appending into
            # that sector would either rewrite acknowledged records
            # (torn-write hazard) or strand new records behind the
            # garbage, so the slot is sealed as-is — without rewriting
            # any data sector — and a fresh slot becomes active.
            self._seal_recovered_slot()
        else:
            self._commit_manifest()
            self._blk_flush()
        elapsed = cpu.clock_ns - started
        cpu.bump("kv.recoveries")
        cpu.bump("kv.torn_records_discarded", torn)
        cpu.metrics.histogram("kv.recovery_ns").observe(elapsed)
        return {
            "slots": list(self._slots),
            "records": records,
            "live_keys": len(self.kv_keys()),
            "torn_discarded": torn,
            "recovery_ns": elapsed,
            "generation": self._gen,
        }

    def _scan_slot(
        self, slot: int, fence: tuple[int, int] | None, sectors: dict
    ) -> tuple[list, int, int]:
        """Walk one segment's log; stops at clean end or first tear.

        Reads a sector only when the walk reaches it, so a scan costs
        the log's sectors, not the slot's; ``sectors`` memoizes them as
        in :meth:`_read_span`.  Understands the append path's sector
        framing: pad records (and sub-header zero gaps at sector tails)
        are skipped so a scan can walk across flush-barrier padding to
        the true end of the log.

        ``fence`` is the active slot's ``(data end, seq)`` from the
        manifest: past the end, the first record that is neither a pad
        nor above the seq belongs to the slot's previous life and ends
        the log.
        """
        fence_end, fence_seq = fence or (self._seg_bytes, 0)
        base = self._slot_base(slot)
        entries = []
        torn = 0
        offset = 0
        while offset + _HDR.size <= self._seg_bytes:
            in_sector = offset % SECTOR_SIZE
            if SECTOR_SIZE - in_sector < _HDR.size:
                # Too little room for a header: zero-fill (_header_gap).
                offset += SECTOR_SIZE - in_sector
                continue
            header = self._read_span(base, offset, _HDR.size, sectors)
            if header == b"\x00" * _HDR.size:
                break  # clean end of log
            crc, seq, klen, vlen, flags = _HDR.unpack(header)
            rec_len = _HDR.size + klen + vlen
            if offset + rec_len > self._seg_bytes:
                torn += 1
                break
            record = self._read_span(base, offset, rec_len, sectors)
            if zlib.crc32(record[4:]) != crc:
                torn += 1
                break  # everything behind a torn record is unreachable
            if not flags & _PAD:
                if offset >= fence_end and seq <= fence_seq:
                    break  # the slot's previous life
                key = record[_HDR.size : _HDR.size + klen]
                entries.append((key, seq, offset, rec_len, flags))
            offset += rec_len
        return entries, torn, offset

    def _apply(self, key: bytes, entry: _KeyDirEntry) -> None:
        current = self._keydir.get(key)
        if current is None or entry.seq > current.seq:
            self._keydir[key] = entry

    # --- hints ---------------------------------------------------------------

    def _write_hint(self, slot: int, entries: list) -> bool:
        """Persist a hint for a sealed slot; False when it won't fit."""
        body = struct.pack(">I", len(entries))
        for key, seq, offset, rec_len, flags in entries:
            body += _HINT_ENTRY.pack(seq, offset, rec_len, flags, len(key))
            body += key
        payload = struct.pack(">I", zlib.crc32(body)) + body
        if len(payload) > self.HINT_SECTORS * SECTOR_SIZE:
            return False
        base = self._hint_base(slot)
        for index in range(0, len(payload), SECTOR_SIZE):
            self._write_sector(
                base + index // SECTOR_SIZE,
                payload[index : index + SECTOR_SIZE],
            )
        return True

    def _read_hint(self, slot: int) -> list | None:
        """Parse one slot's hint region; None when absent/corrupt.

        Sectors are read lazily as parsing needs them, so a small hint
        costs far fewer device reads than a full segment scan.
        """
        base = self._hint_base(slot)
        data = self._read_sector(base)
        crc, count = struct.unpack_from(">II", data, 0)
        sector = 1
        entries = []
        offset = 8
        for _ in range(count):
            while offset + _HINT_ENTRY.size > len(data):
                if sector >= self.HINT_SECTORS:
                    return None
                data += self._read_sector(base + sector)
                sector += 1
            seq, rec_offset, rec_len, flags, klen = _HINT_ENTRY.unpack_from(
                data, offset
            )
            offset += _HINT_ENTRY.size
            while offset + klen > len(data):
                if sector >= self.HINT_SECTORS:
                    return None
                data += self._read_sector(base + sector)
                sector += 1
            key = data[offset : offset + klen]
            offset += klen
            entries.append((key, seq, rec_offset, rec_len, flags))
        if zlib.crc32(data[4:offset]) != crc:
            return None
        if entries:
            # Epoch cross-check: slots are recycled by compaction, so a
            # crash can leave a *stale but internally-valid* hint from
            # the slot's previous life next to new data.  The hint is
            # only trusted if its first entry matches the data region.
            _, seq0, offset0, _, _ = entries[0]
            raw = self._read_span(self._slot_base(slot), offset0, _HDR.size)
            _, data_seq, _, _, _ = _HDR.unpack(raw)
            if data_seq != seq0:
                return None
        return entries

    # --- append path ----------------------------------------------------------

    def _append(self, key: bytes, value: bytes, flags: int) -> None:
        if _header_gap(self._append_offset):
            self._zero_fill_sector()
        if self._append_offset + _HDR.size + len(key) + len(value) > self._seg_bytes:
            self._seal_active()
        # Taken after any seal: above the seq its manifest fences.
        self._seq += 1
        seq = self._seq
        record = _encode_record(key, value, seq, flags)
        offset = self._append_offset
        self._write_record_bytes(record)
        self._slot_records.setdefault(self._active, []).append(
            (key, seq, offset, len(record), flags)
        )
        self._apply(key, _KeyDirEntry(self._active, offset, len(record), seq, flags))
        self.machine.cpu.bump("kv.appends")

    def _write_record_bytes(self, record: bytes) -> None:
        """Append raw record bytes at the active slot's tail.

        ``_tail`` is a persistent bytearray extended in place — the
        append path never rebuilds the whole partial-sector buffer per
        record the way a bytes concatenation would.
        """
        base = self._slot_base(self._active)
        tail = self._tail
        tail_start = self._append_offset - len(tail)
        tail += record
        sector = base + tail_start // SECTOR_SIZE
        index = 0
        while len(tail) - index >= SECTOR_SIZE:
            self._write_sector(sector, bytes(tail[index : index + SECTOR_SIZE]))
            sector += 1
            index += SECTOR_SIZE
        if index:
            del tail[:index]
        self._append_offset += len(record)

    def _flush_tail(self) -> None:
        """Write the partial tail sector (padded) so it can be flushed."""
        if not self._tail:
            return
        base = self._slot_base(self._active)
        tail_start = self._append_offset - len(self._tail)
        self._write_sector(base + tail_start // SECTOR_SIZE, bytes(self._tail))

    def _pad_to_sector(self) -> None:
        """Advance the append point to a sector boundary.

        Called at every flush barrier so that a flushed (acknowledged)
        record never shares a sector with a later unflushed append — a
        torn write of the shared sector would otherwise destroy
        already-acknowledged data, which is exactly the failure the
        durability contract forbids.  The wasted tail is the usual
        write-amplification cost of sector-aligned commits; compaction
        reclaims it.
        """
        if not self._tail:
            return
        remainder = SECTOR_SIZE - len(self._tail)
        if remainder >= _HDR.size:
            # A CRC-framed pad record fills the sector exactly.
            pad = _encode_record(
                b"", b"\x00" * (remainder - _HDR.size), 0, _PAD
            )
            self._write_record_bytes(pad)
        else:
            self._zero_fill_sector()

    def _zero_fill_sector(self) -> None:
        """Write the tail sector zero-filled and move the append point to
        the next sector (the scanner skips the zero gap)."""
        self._flush_tail()
        self._append_offset += SECTOR_SIZE - len(self._tail)
        self._tail = bytearray()

    def _barrier(self) -> None:
        """Flush barrier: everything appended so far becomes durable."""
        self._pad_to_sector()
        self._blk_flush()
        self._durable_seq = self._seq
        self._unflushed = 0

    def _after_write(self, records: int = 1) -> None:
        self._unflushed += records
        if self._unflushed >= self._batch:
            self._barrier()

    def _free_slot(self) -> int | None:
        used = set(self._slots)
        for slot in range(self.NUM_SLOTS):
            if slot not in used:
                return slot
        return None

    def _seal_recovered_slot(self) -> None:
        """Seal the crash-damaged active slot at recovery time.

        Writes only the hint and a new manifest — never a data sector,
        so a crash during this step cannot damage recovered records.
        """
        entries = self._slot_records.get(self._active, [])
        if not self._write_hint(self._active, entries):
            self.machine.cpu.bump("kv.hint_skipped")
        slot = self._free_slot()
        if slot is None:
            self._merge()  # reclaims superseded slots; leaves clean state
            return
        self._slots.append(slot)
        self._slot_records[slot] = []
        self._append_offset = 0
        self._tail = bytearray()
        self._commit_manifest()
        self._blk_flush()

    def _seal_slot_metadata(self) -> None:
        """Persist the active slot's tail and hint (pre-seal step)."""
        self._flush_tail()
        sealed_entries = self._slot_records.get(self._active, [])
        if not self._write_hint(self._active, sealed_entries):
            self.machine.cpu.bump("kv.hint_skipped")

    def _seal_active(self) -> None:
        """Seal the full active slot and open a fresh one."""
        self._seal_slot_metadata()
        if len(self._slots) >= self.COMPACT_THRESHOLD:
            self._merge()
            if self._append_offset + MAX_VALUE < self._seg_bytes:
                return  # merge left room in its active slot
            self._seal_slot_metadata()
        slot = self._free_slot()
        if slot is None:
            raise GateError("kv: out of segment slots (compaction cannot help)")
        self._slots.append(slot)
        self._slot_records[slot] = []
        self._append_offset = 0
        self._tail = bytearray()
        self._commit_manifest()
        self._blk_flush()
        self._durable_seq = self._seq
        self._unflushed = 0

    # --- record reads ---------------------------------------------------------

    def _read_record(
        self, entry: _KeyDirEntry, sectors: dict | None = None
    ) -> tuple[bytes, bytes]:
        """``(record bytes, value)`` of the record ``entry`` names, after
        its CRC and seq check; ``sectors`` as in :meth:`_read_span`."""
        raw = self._read_span(
            self._slot_base(entry.slot), entry.offset, entry.rec_len, sectors
        )
        if entry.slot == self._active and self._tail:
            # The record may extend into the in-memory tail (appended
            # but not yet written to the device) — overlay it.
            tail_start = self._append_offset - len(self._tail)
            lo = max(entry.offset, tail_start)
            hi = min(entry.offset + entry.rec_len, self._append_offset)
            if lo < hi:
                patched = bytearray(raw)
                patched[lo - entry.offset : hi - entry.offset] = self._tail[
                    lo - tail_start : hi - tail_start
                ]
                raw = bytes(patched)
        crc, seq, klen, _, _ = _HDR.unpack_from(raw, 0)
        if zlib.crc32(raw[4:]) != crc or seq != entry.seq:
            raise RecordError(
                f"kv: record at slot {entry.slot}+{entry.offset} corrupt"
            )
        return raw, raw[_HDR.size + klen :]

    # --- compaction -----------------------------------------------------------

    def _merge(self) -> dict:
        """Merge live records into free slots; atomic manifest commit."""
        self._flush_tail()
        self._blk_flush()
        free = [
            slot
            for slot in range(self.NUM_SLOTS)
            if slot not in set(self._slots)
        ]
        if not free:
            raise GateError("kv: no free slots to compact into")
        live = sorted(
            (
                (entry.seq, key, entry)
                for key, entry in self._keydir.items()
                if not entry.tombstone
            ),
        )
        # Pack live records into fresh segment images, in seq order,
        # copying each checked record as it is.  A source sector is read
        # once, when the first live record in it is.
        images: list[tuple[int, bytearray, list]] = []
        image: bytearray | None = None
        sectors: dict[int, bytes] = {}
        for seq, key, entry in live:
            record, _ = self._read_record(entry, sectors)
            if image is not None:
                image.extend(bytes(_header_gap(len(image))))
            if image is None or len(image) + len(record) > self._seg_bytes:
                if len(images) >= len(free):
                    raise GateError("kv: live data exceeds free slots")
                image, entries = bytearray(), []
                images.append((free[len(images)], image, entries))
            entries.append((key, seq, len(image), len(record), entry.flags))
            image.extend(record)
        if not images:
            images.append((free[0], bytearray(), []))
        # Write data (and hints for the sealed merge slots), then flush.
        new_records: dict[int, list] = {}
        for slot, image, entries in images:
            base = self._slot_base(slot)
            for start in range(0, len(image), SECTOR_SIZE):
                self._write_sector(
                    base + start // SECTOR_SIZE,
                    bytes(image[start : start + SECTOR_SIZE]),
                )
            new_records[slot] = entries
        for slot, image, entries in images[:-1]:
            self._write_hint(slot, entries)
        self._blk_flush()
        # The merged data is durable but unreferenced until the
        # manifest commit below — the armed crash-mid-compaction site
        # fires exactly here, and recovery must fall back to the old
        # (still intact) segment chain.  Nothing in self points at the
        # new slots yet, so a crash here loses no state.
        injector = self.machine.injector
        if injector is not None:
            injector.on_kv_phase(self, "compaction")
        old_slots = list(self._slots)
        self._slots = [slot for slot, _, _ in images]
        self._slot_records = new_records
        last_slot, last_image, _ = images[-1]
        self._append_offset = len(last_image)
        partial = self._append_offset % SECTOR_SIZE
        self._tail = bytearray(last_image[-partial:]) if partial else bytearray()
        # Align the merged log to a sector boundary so future appends
        # never rewrite a sector holding (flushed) merged records.
        self._pad_to_sector()
        self._commit_manifest()
        self._blk_flush()
        self._durable_seq = self._seq
        self._unflushed = 0
        # Rebuild the keydir against the merged locations.
        self._keydir = {}
        for slot, entries in new_records.items():
            for key, seq, offset, rec_len, flags in entries:
                self._apply(key, _KeyDirEntry(slot, offset, rec_len, seq, flags))
        self.machine.cpu.bump("kv.compactions")
        return {
            "live_records": len(live),
            "slots_before": len(old_slots),
            "slots_after": len(images),
        }

    # --- exports --------------------------------------------------------------

    @export
    def get(self, key: bytes, buf_addr: int) -> int:
        """Copy the latest value into the caller's buffer; -1 on miss."""
        self._ensure_open()
        self.gets += 1
        entry = self._keydir.get(bytes(key))
        if entry is None or entry.tombstone:
            return -1
        _, value = self._read_record(entry)
        if value:
            self.machine.store(buf_addr, value)
        return len(value)

    @export
    def journal(self, buf_addr: int, n: int) -> int:
        """Append every entry of a journal buffer; returns their count.

        The ``n`` bytes at ``buf_addr`` are :data:`JOURNAL_ENTRY`-framed
        puts and deletes, appended in buffer order.  They are untrusted
        input: every entry is checked before the first is appended, so
        a malformed buffer raises :class:`GateError` having appended
        nothing.  The flush policy applies once per call: with
        ``every-write`` the call returns after one barrier that covers
        every entry.
        """
        if not 0 < n <= MAX_JOURNAL:
            raise GateError(f"kv: journal length {n} out of range")
        entries = _parse_journal(self.machine.load(buf_addr, n))
        self._ensure_open()
        for key, value, flags in entries:
            self._append(key, value, flags)
        deletes = sum(1 for _, _, flags in entries if flags)
        self.deletes += deletes
        self.puts += len(entries) - deletes
        self._after_write(len(entries))
        return len(entries)

    @export
    def sync(self) -> int:
        """Force a flush barrier; returns the durable sequence number."""
        self._ensure_open()
        self._barrier()
        return self._durable_seq

    @export
    def compact(self) -> dict:
        """Merge live records, dropping superseded ones and tombstones."""
        self._ensure_open()
        return self._merge()

    @export
    def recover(self) -> dict:
        """(Re)build state from the medium; returns a recovery report."""
        self._open = False
        return self._recover_state()

    @export
    def set_flush_policy(self, policy: str) -> str:
        """``every-write`` or ``batch:N`` (flush every N mutations)."""
        if policy == "every-write":
            self._batch = 1
        elif policy.startswith("batch:"):
            try:
                batch = int(policy.split(":", 1)[1])
            except ValueError:
                raise GateError(f"kv: bad flush policy {policy!r}") from None
            if batch < 1:
                raise GateError(f"kv: bad flush policy {policy!r}")
            self._batch = batch
        else:
            raise GateError(f"kv: unknown flush policy {policy!r}")
        self._flush_policy = policy
        return policy

    @export
    def kv_keys(self) -> list[bytes]:
        """All live (non-tombstoned) keys, sorted."""
        self._ensure_open()
        return sorted(
            key
            for key, entry in self._keydir.items()
            if not entry.tombstone
        )

    @export
    def kv_stats(self) -> dict:
        """Operation counters + store geometry."""
        counter = self.machine.cpu.metrics.counter
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "compactions": int(counter("kv.compactions")),
            "recoveries": int(counter("kv.recoveries")),
            "torn_records_discarded": int(counter("kv.torn_records_discarded")),
            "hint_hits": int(counter("kv.hint_hits")),
            "hint_misses": int(counter("kv.hint_misses")),
            "live_keys": sum(
                1 for entry in self._keydir.values() if not entry.tombstone
            ),
            "keydir_size": len(self._keydir),
            "slots_used": len(self._slots),
            "seq": self._seq,
            "durable_seq": self._durable_seq,
            "flush_policy": self._flush_policy,
            "generation": self._gen,
        }
