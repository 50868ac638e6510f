"""The ``blk`` micro-library: a block device with crash semantics.

Unikraft ships ``ukblkdev`` as a micro-library; FlexOS can place the
block layer in its own compartment like any other component.  The model
here has the three properties a durability study needs:

1. **Write-back caching.**  ``blk_write`` lands in a per-sector cache
   of *simulated* private memory (blocks from the compartment's heap),
   so cached-but-unflushed data is subject to protection keys,
   hardening, and gate semantics like every other byte in the system.
2. **Explicit flush barriers.**  Only ``blk_flush`` moves cached
   sectors to the durable :class:`DiskMedium`.  An acknowledged write
   is durable *iff* a flush barrier completed after it.
3. **Crash semantics.**  On an injected power failure, the unflushed
   cache is destroyed *adversarially but deterministically* from the
   campaign seed: dirty sectors are reordered, a random-length prefix
   survives, and each surviving sector may be torn (a partial write —
   the classic "512-byte sector, 4k write" failure).  Torn sectors are
   what CRC framing in the layers above must catch.

The :class:`DiskMedium` itself is *host-side* state — the analogue of
the platter surviving a reboot.  The campaign driver creates one
medium, builds an image around it, crashes the image, then builds a
fresh image against the same medium and runs recovery.

Like the filesystem, the block layer's declared FlexOS metadata is
conservative (``Read(*); Write(*); Call *``); its ``TRUE_BEHAVIOR``
is bounded, so software-hardening variants can narrow it.
"""

from __future__ import annotations

import dataclasses
import random

from repro.libos.library import MicroLibrary, export
from repro.machine.faults import GateError

#: Bytes per device sector.  Deliberately smaller than the 4096-byte
#: ramfs block so multi-sector objects exercise torn-write semantics.
SECTOR_SIZE = 512

#: Garbage byte pattern filling the torn tail of a partially-persisted
#: sector (old data / bit rot — anything but the intended payload).
_TORN_FILL = 0xEE


@dataclasses.dataclass
class CrashReport:
    """What the crash model did to the unflushed cache (audit row)."""

    dirty: int
    persisted: int
    dropped: int
    torn: int
    torn_sectors: tuple[int, ...]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class DiskMedium:
    """Host-side durable sector store — the platter across reboots.

    Lives *outside* any image: images attach to it at build time and
    the medium keeps its contents when the image is torn down, which is
    how "reboot and recover" is modelled.  ``generation`` counts power
    failures applied to it, so tests can assert a crash happened.
    """

    def __init__(
        self, num_sectors: int = 4096, sector_size: int = SECTOR_SIZE
    ) -> None:
        self.num_sectors = num_sectors
        self.sector_size = sector_size
        #: Sparse sector payloads; missing sectors read as zeros.
        self.sectors: dict[int, bytes] = {}
        #: Power failures survived so far.
        self.generation = 0
        #: Total sector writes that reached the platter (all time).
        self.writes = 0

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_sectors:
            raise GateError(
                f"sector {index} out of range [0, {self.num_sectors})"
            )

    def read(self, index: int) -> bytes:
        """Durable payload of one sector (zeros when never written)."""
        self._check(index)
        payload = self.sectors.get(index)
        if payload is None:
            return b"\x00" * self.sector_size
        return payload

    def write(self, index: int, payload: bytes) -> None:
        """Persist one full sector."""
        self._check(index)
        if len(payload) != self.sector_size:
            raise GateError(
                f"sector write must be exactly {self.sector_size} bytes, "
                f"got {len(payload)}"
            )
        self.sectors[index] = bytes(payload)
        self.writes += 1


class BlockDeviceLibrary(MicroLibrary):
    """Write-back block device over a :class:`DiskMedium`."""

    NAME = "blk"
    SPEC = """
    [Memory access] Read(*); Write(*)
    [Call] *
    [API] blk_info(); blk_read(sector, buf); blk_write(sector, buf); \
blk_flush(); blk_stats()
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": [
            "alloc::malloc",
            "alloc::free",
        ],
    }
    API_CONTRACTS = {
        "blk_read": [
            (lambda args: args[0] >= 0, "sector must be non-negative"),
        ],
        "blk_write": [
            (lambda args: args[0] >= 0, "sector must be non-negative"),
        ],
    }
    POINTER_PARAMS = {"blk_read": (1,), "blk_write": (1,)}
    #: Buffers are always exactly one sector; negative = fixed size.
    CAP_GRANTS = {
        "blk_read": ((1, -SECTOR_SIZE),),
        "blk_write": ((1, -SECTOR_SIZE),),
    }

    def __init__(self) -> None:
        super().__init__()
        self.medium: DiskMedium | None = None
        self._alloc = None
        #: sector → private cache-block address (clean or dirty).
        self._cache: dict[int, int] = {}
        #: Dirty sectors in write-completion order (flush order).
        self._dirty: list[int] = []

    def on_boot(self) -> None:
        self._alloc = self.stub("alloc")
        if self.medium is None:
            # Standalone use (tests, benchmarks without a campaign
            # driver): a fresh volatile medium per image.
            self.medium = DiskMedium()

    # --- host-side wiring (campaign driver, not simulated code) -----------

    def attach_medium(self, medium: DiskMedium) -> None:
        """Attach the durable medium this device fronts (pre-boot)."""
        self.medium = medium

    # --- helpers ------------------------------------------------------------

    def _medium(self) -> DiskMedium:
        if self.medium is None:
            raise GateError("blk: no medium attached (device not booted)")
        return self.medium

    def _cache_block(self, sector: int) -> int:
        addr = self._cache.get(sector)
        if addr is None:
            addr = self._cache[sector] = self._alloc.call(
                "malloc", SECTOR_SIZE
            )
        return addr

    def _charge_op(self) -> None:
        cost = self.machine.cost
        self.charge(cost.blk_op_ns + SECTOR_SIZE * cost.blk_byte_ns)

    # --- exports --------------------------------------------------------------

    @export
    def blk_info(self) -> dict:
        """Device geometry."""
        medium = self._medium()
        return {
            "num_sectors": medium.num_sectors,
            "sector_size": medium.sector_size,
            "generation": medium.generation,
        }

    @export
    def blk_read(self, sector: int, buf_addr: int) -> int:
        """Read one sector into the caller's (shared) buffer.

        Served from the write-back cache when the sector is cached —
        reads always observe the latest write, flushed or not.
        """
        medium = self._medium()
        self._charge_op()
        cached = self._cache.get(sector)
        if cached is not None:
            self.machine.copy(buf_addr, cached, SECTOR_SIZE)
        else:
            self.machine.store(buf_addr, medium.read(sector))
        self.machine.cpu.bump("blk.reads")
        return SECTOR_SIZE

    @export
    def blk_write(self, sector: int, buf_addr: int) -> int:
        """Write one sector from the caller's buffer into the cache.

        NOT durable until a subsequent :meth:`blk_flush` returns.
        """
        medium = self._medium()
        medium._check(sector)
        self._charge_op()
        self.machine.copy(self._cache_block(sector), buf_addr, SECTOR_SIZE)
        if sector in self._dirty:
            self._dirty.remove(sector)
        self._dirty.append(sector)
        self.machine.cpu.bump("blk.writes")
        return SECTOR_SIZE

    @export
    def blk_flush(self) -> int:
        """Flush barrier: write back every dirty sector, in order.

        Returns the number of sectors written back.  When this export
        returns, everything written before it is durable.  The armed
        ``blk-torn-write`` site fires *during* the writeback — the
        in-flight sector is torn on the medium and the machine loses
        power, so the caller never sees the flush acknowledged.
        """
        medium = self._medium()
        cost = self.machine.cost
        self.charge(cost.blk_flush_ns)
        injector = self.machine.injector
        flushed = 0
        while self._dirty:
            sector = self._dirty[0]
            if injector is not None:
                injector.on_blk_flush(self, sector)
            self.charge(cost.blk_op_ns + SECTOR_SIZE * cost.blk_byte_ns)
            medium.write(sector, self.machine.load(self._cache[sector], SECTOR_SIZE))
            self._dirty.pop(0)
            flushed += 1
        self.machine.cpu.bump("blk.flushes")
        self.machine.cpu.bump("blk.flushed_sectors", flushed)
        return flushed

    @export
    def blk_stats(self) -> dict:
        """Operation counters + cache state."""
        medium = self._medium()
        counter = self.machine.cpu.metrics.counter
        return {
            "reads": int(counter("blk.reads")),
            "writes": int(counter("blk.writes")),
            "flushes": int(counter("blk.flushes")),
            "cached": len(self._cache),
            "dirty": len(self._dirty),
            "medium_writes": medium.writes,
            "generation": medium.generation,
        }

    # --- crash model (host-side, driven by the campaign) ------------------

    def cache_payload(self, sector: int) -> bytes:
        """Host-side peek at a cached sector (DMA, zero cost)."""
        addr = self._cache[sector]
        return self.machine.dma_read(
            self.compartment.address_space, addr, SECTOR_SIZE
        )

    def tear_on_medium(self, sector: int, rng: random.Random) -> int:
        """Persist a *torn* copy of a cached sector (crash mid-write).

        Models power failing while the head was over the sector: a
        random-length prefix of the intended payload lands, the tail is
        garbage.  Returns the number of valid prefix bytes.  Used by
        the injector's ``blk-torn-write`` site; the caller then raises
        :class:`~repro.machine.faults.PowerFailure`.
        """
        medium = self._medium()
        payload = self.cache_payload(sector)
        keep = rng.randrange(0, SECTOR_SIZE)
        torn = payload[:keep] + bytes([_TORN_FILL]) * (SECTOR_SIZE - keep)
        medium.sectors[sector] = torn
        medium.writes += 1
        return keep

    def crash(self, rng: random.Random) -> CrashReport:
        """Destroy the unflushed cache per the crash model; seed-driven.

        Dirty sectors are *reordered*, a random-length prefix of the
        reordered list is persisted (the rest is *dropped*), and each
        persisted sector is *torn* with probability ½.  The medium's
        generation is bumped; the cache is gone (the machine lost
        power).  Flushed data is untouched — that is the contract.
        """
        medium = self._medium()
        dirty = list(self._dirty)
        rng.shuffle(dirty)
        persisted = dirty[: rng.randint(0, len(dirty))]
        torn_sectors = []
        for sector in persisted:
            if rng.random() < 0.5:
                self.tear_on_medium(sector, rng)
                torn_sectors.append(sector)
            else:
                medium.write(sector, self.cache_payload(sector))
        self._cache.clear()
        self._dirty.clear()
        medium.generation += 1
        return CrashReport(
            dirty=len(dirty),
            persisted=len(persisted),
            dropped=len(dirty) - len(persisted),
            torn=len(torn_sectors),
            torn_sectors=tuple(sorted(torn_sectors)),
        )
