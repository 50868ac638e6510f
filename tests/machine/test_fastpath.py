"""Differential property tests: the software TLB vs the page walk.

A :class:`~repro.machine.machine.Machine` and a test-only
:class:`~tests.machine.reference.ReferenceMachine` (which walks the page
table and checks every page on every access) execute the same
randomized trace of map/unmap/protect/pkey/wrpkru/load/store/DMA
operations.  Maps of one to four pages make multi-page extents, which
single-page protects and unmaps then split, so bulk accesses are served
both inside one cached extent run and across several.  Every operation
must produce the same value or the same fault, and at the end the
simulated clock, every counter, and the full physical memory image must
be bit-identical: translation caching may only change host wall-clock,
never any simulated observable.
"""

from __future__ import annotations

import random

import pytest

from repro.machine.address_space import Permissions
from repro.machine.capabilities import CapabilitySet
from repro.machine.cpu import DomainProfile
from repro.machine.faults import PageFault, ProtectionFault, SHViolation
from repro.machine.machine import Machine
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE
from repro.machine.mpk import pkru_all_access, pkru_for_keys
from tests.machine.reference import ReferenceMachine

#: Window of fixed-placement test pages (clear of the reserve bump).
BASE = 0x2000_0000
NUM_PAGES = 8
PERM_CHOICES = (
    Permissions.NONE,
    Permissions.READ,
    Permissions.RW,
)
PKEY_CHOICES = (0, 1, 2, 3)


def _build(
    machine_cls=Machine, profile: DomainProfile | None = None, caps=None
):
    machine = machine_cls()
    space = machine.new_address_space("main")
    context = machine.boot_context(space, label="test")
    if profile is not None:
        context.profile = profile
    if caps is not None:
        context.capabilities = caps
    return machine, space, context


def _page_va(page: int) -> int:
    return BASE + page * PAGE_SIZE


def _random_trace(rng: random.Random, ops: int) -> list[tuple]:
    """A seeded operation trace, independent of any machine state."""
    trace = []
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.10:
            npages = rng.randint(1, 4)
            trace.append(
                (
                    "map",
                    rng.randrange(NUM_PAGES - npages + 1),
                    npages,
                    rng.choice(PERM_CHOICES),
                    rng.choice(PKEY_CHOICES),
                )
            )
        elif roll < 0.16:
            trace.append(("unmap", rng.randrange(NUM_PAGES)))
        elif roll < 0.26:
            trace.append(
                (
                    "protect",
                    rng.randrange(NUM_PAGES),
                    rng.choice(PERM_CHOICES + (None,)),
                    rng.choice(PKEY_CHOICES + (None,)),
                )
            )
        elif roll < 0.34:
            # PKRU change: sealed WRPKRU half the time, direct register
            # mutation (≈ a context switch restoring saved PKRU) the
            # other half.
            keys = tuple(
                key for key in PKEY_CHOICES if rng.random() < 0.7
            )
            trace.append(
                (
                    "pkru",
                    rng.random() < 0.5,
                    pkru_for_keys(writable=keys)
                    if keys
                    else pkru_all_access(),
                )
            )
        else:
            page = rng.randrange(NUM_PAGES)
            offset = rng.choice((0, 1, 7, PAGE_SIZE - 3, PAGE_SIZE - 1))
            # Bulk sizes (3+ pages) exercise cached extent runs and the
            # walk across extents, including runs with non-contiguous
            # frames (remapped pages) and faults in the middle of a run.
            size = rng.choice(
                (0, 1, 8, 64, PAGE_SIZE, PAGE_SIZE + 17,
                 3 * PAGE_SIZE + 11, 6 * PAGE_SIZE)
            )
            vaddr = _page_va(page) + offset
            # Device DMA ignores page rights and keys, on the same
            # pages the CPU accesses.
            kind = rng.choice(
                ("load", "load", "load", "store", "store", "store",
                 "dma_read", "dma_write")
            )
            if kind in ("load", "dma_read"):
                trace.append((kind, vaddr, size))
            else:
                payload = bytes(
                    rng.getrandbits(8) for _ in range(min(size, 64))
                ) * (1 if size <= 64 else (size // 64 + 1))
                trace.append((kind, vaddr, payload[:size]))
    return trace


def _apply(machine: Machine, space, op: tuple):
    """Run one trace op; normalise the outcome (value or fault)."""
    cpu = machine.cpu
    kind = op[0]
    try:
        if kind == "map":
            _, page, npages, perms, pkey = op
            pages = range(page, page + npages)
            if any(space.is_mapped(_page_va(each)) for each in pages):
                return ("noop",)
            space.map_new(npages * PAGE_SIZE, perms, pkey, vaddr=_page_va(page))
            return ("mapped", page, npages)
        if kind == "unmap":
            _, page = op
            if not space.is_mapped(_page_va(page)):
                return ("noop",)
            space.unmap(_page_va(page), PAGE_SIZE)
            return ("unmapped", page)
        if kind == "protect":
            _, page, perms, pkey = op
            if not space.is_mapped(_page_va(page)):
                return ("noop",)
            space.protect(_page_va(page), PAGE_SIZE, perms, pkey)
            return ("protected", page)
        if kind == "pkru":
            _, sealed, value = op
            if sealed:
                cpu.wrpkru(value, cpu.gate_token())
            else:
                cpu.current.pkru = value
            return ("pkru", value)
        if kind == "load":
            _, vaddr, size = op
            return ("bytes", machine.load(vaddr, size))
        if kind == "store":
            _, vaddr, payload = op
            machine.store(vaddr, payload)
            return ("stored", len(payload))
        if kind == "dma_read":
            _, vaddr, size = op
            return ("bytes", machine.dma_read(space, vaddr, size))
        if kind == "dma_write":
            _, vaddr, payload = op
            machine.dma_write(space, vaddr, payload)
            return ("stored", len(payload))
        raise AssertionError(f"unknown op {kind}")
    except (PageFault, ProtectionFault, SHViolation) as exc:
        return ("fault", type(exc).__name__, str(exc))


def _run_differential(seed: int, ops: int = 400, profile_factory=None,
                      caps_factory=None):
    return _run_trace(
        _random_trace(random.Random(seed), ops), profile_factory, caps_factory
    )


def _run_trace(trace: list[tuple], profile_factory=None, caps_factory=None):
    """Run ``trace`` on both machines; returns them and the outcomes."""
    fast, fast_space, _ = _build(
        Machine,
        profile_factory() if profile_factory else None,
        caps_factory() if caps_factory else None,
    )
    slow, slow_space, _ = _build(
        ReferenceMachine,
        profile_factory() if profile_factory else None,
        caps_factory() if caps_factory else None,
    )
    results = []
    for index, op in enumerate(trace):
        fast_result = _apply(fast, fast_space, op)
        slow_result = _apply(slow, slow_space, op)
        assert fast_result == slow_result, (
            f"divergence at op {index} {op!r}: "
            f"fast={fast_result!r} slow={slow_result!r}"
        )
        results.append(fast_result)
    # Every simulated observable is bit-identical.  The two count
    # accesses independently: the machine in its own ints, which the
    # registry derives ``loads`` and the byte counts from on read, the
    # reference through ``cpu.bump`` into the registry's table.
    assert fast.cpu.clock_ns == slow.cpu.clock_ns
    assert fast.cpu.snapshot() == slow.cpu.snapshot()
    assert "loads" not in fast.cpu.metrics.table
    assert slow.loads == slow.stores == 0
    assert fast.phys.view == slow.phys.view
    assert fast.phys.frames_allocated == slow.phys.frames_allocated
    return fast, slow, results


@pytest.mark.parametrize("seed", range(6))
def test_differential_neutral_profile(seed):
    fast, _, results = _run_differential(seed)
    # The machine actually exercised its cache, on multi-page extents.
    stats = fast.fastpath_stats()
    assert stats["tlb_hits"] + stats["tlb_misses"] > 0
    assert any(result[0] == "mapped" and result[2] > 1 for result in results)


@pytest.mark.parametrize("seed", (1, 7))
def test_differential_asan_like_monitor(seed):
    """Monitors (charge + veto) run identically on both machines."""

    def profile():
        poisoned = (BASE + 2 * PAGE_SIZE + 100, BASE + 2 * PAGE_SIZE + 120)

        def monitor(machine, kind, vaddr, size):
            machine.cpu.charge(machine.cost.asan_check_ns)
            if vaddr < poisoned[1] and poisoned[0] < vaddr + size:
                raise SHViolation("asan", f"poisoned {kind} at {vaddr:#x}")

        return DomainProfile(
            name="asan-like",
            load_factor=1.32,
            store_factor=1.32,
            monitors=[monitor],
        )

    _run_differential(seed, profile_factory=profile)


@pytest.mark.parametrize("seed", (2, 9))
def test_differential_dfi_like_monitor(seed):
    """Store-only monitors (DFI) see the same access stream."""

    def profile():
        def monitor(machine, kind, vaddr, size):
            if kind != "store":
                return
            machine.cpu.bump("dfi_checks")

        return DomainProfile(
            name="dfi-like", store_factor=1.07, monitors=[monitor]
        )

    fast, slow, _ = _run_differential(seed, profile_factory=profile)
    dfi_checks = [m.cpu.metrics.counters.get("dfi_checks") for m in (fast, slow)]
    assert dfi_checks[0] == dfi_checks[1]


@pytest.mark.parametrize("seed", (3, 11))
def test_differential_capability_context(seed):
    """Capability contexts translate through the cache, bit-identically."""

    def caps():
        # Cover part of the window so some accesses fault on bounds.
        return CapabilitySet(
            "test", [(BASE, BASE + (NUM_PAGES - 2) * PAGE_SIZE)]
        )

    fast, _, _ = _run_differential(seed, caps_factory=caps)
    assert fast.fastpath_stats()["tlb_hits"] > 0


def test_capability_bounds_fault_on_a_cached_page():
    """A cached translation never widens a capability: an access past
    the bounds faults on a page whose translation the TLB holds, and a
    read-only grant never becomes writable."""
    caps = CapabilitySet("test", [(BASE, BASE + 64)])
    machine, space, _ = _build(caps=caps)
    space.map_new(PAGE_SIZE, Permissions.RW, vaddr=BASE)
    machine.store(BASE, b"in-bound")
    assert machine.load(BASE, 8) == b"in-bound"
    assert machine.load(BASE, 8) == b"in-bound"
    assert machine.fastpath_stats()["tlb_hits"] > 0  # translations cached
    for vaddr, size in ((BASE + 64, 8), (BASE + 60, 8), (BASE + 128, 1)):
        with pytest.raises(ProtectionFault):
            machine.load(vaddr, size)
        with pytest.raises(ProtectionFault):
            machine.store(vaddr, b"x" * size)
    caps.grant(BASE + 64, 64, writable=False)
    assert machine.load(BASE + 64, 8) == bytes(8)
    with pytest.raises(ProtectionFault):
        machine.store(BASE + 64, b"x")
    caps.grants.clear()  # the gate's return revokes its delegations
    with pytest.raises(ProtectionFault):
        machine.load(BASE + 64, 8)
    # Nothing out of bounds was written, and the faults came from the
    # bounds check on cached translations, not from a fresh page walk.
    assert machine.load(BASE, 64) == b"in-bound" + bytes(56)
    assert machine.dma_read(space, BASE + 64, 128) == bytes(128)
    assert machine.fastpath_stats()["tlb_misses"] == 3  # read, write, DMA


def test_protect_revokes_cached_read():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"x" * 8)
    assert machine.load(vaddr, 8) == b"x" * 8  # populates the cache
    space.protect(vaddr, PAGE_SIZE, Permissions.NONE)
    with pytest.raises(PageFault):
        machine.load(vaddr, 8)
    with pytest.raises(PageFault):
        machine.store(vaddr, b"y")


def test_pkey_change_invalidates_cached_rights():
    machine, space, context = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=1)
    context.pkru = pkru_for_keys(writable=(1,))
    machine.store(vaddr, b"ok")
    space.protect(vaddr, PAGE_SIZE, pkey=2)  # now a key this PKRU denies
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 2)


def test_pkru_switch_needs_no_shootdown():
    """PKRU is part of the cache key: stale rights cannot leak."""
    machine, space, context = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW, pkey=3)
    context.pkru = pkru_for_keys(writable=(3,))
    machine.store(vaddr, b"hot")  # cached under the permissive PKRU
    context.pkru = pkru_for_keys(writable=(0,))  # "context switch"
    with pytest.raises(ProtectionFault):
        machine.load(vaddr, 3)
    context.pkru = pkru_for_keys(writable=(3,))
    assert machine.load(vaddr, 3) == b"hot"


def test_remap_returns_new_frame_contents():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"old!")
    assert machine.load(vaddr, 4) == b"old!"
    space.unmap(vaddr, PAGE_SIZE)
    with pytest.raises(PageFault):
        machine.load(vaddr, 4)
    new_vaddr = space.map_new(PAGE_SIZE, Permissions.RW, vaddr=vaddr)
    assert new_vaddr == vaddr
    assert machine.load(vaddr, 4) == bytes(4)  # scrubbed fresh frame


def test_tlb_telemetry_counts():
    machine, space, _ = _build()
    vaddr = space.map_new(PAGE_SIZE, Permissions.RW)
    machine.store(vaddr, b"a")
    machine.store(vaddr, b"b")
    machine.load(vaddr, 1)
    machine.load(vaddr, 1)
    stats = machine.fastpath_stats()
    assert stats["tlb_misses"] == 2  # one read fill, one write fill
    assert stats["tlb_hits"] == 2
    before = stats["tlb_invalidations"]
    space.protect(vaddr, PAGE_SIZE, Permissions.READ)
    assert machine.fastpath_stats()["tlb_invalidations"] == before + 1
    # Telemetry never leaks into the simulated counter registry.
    assert "tlb_hits" not in machine.cpu.metrics.counters


def test_range_cache_bulk_roundtrip_and_invalidation():
    """A bulk access inside one extent is one probe of the cached run;
    a protect in the middle of the run makes a store fault at the
    revoked page, with the pages before it written."""
    machine, space, _ = _build()
    vaddr = space.map_new(8 * PAGE_SIZE, Permissions.RW)
    payload = bytes(range(256)) * (8 * PAGE_SIZE // 256)
    machine.store(vaddr, payload)
    assert machine.load(vaddr, 8 * PAGE_SIZE) == payload
    # The second bulk access of each kind is a single cache hit.
    for access in (
        lambda: machine.load(vaddr, 8 * PAGE_SIZE),
        lambda: machine.store(vaddr, payload),
    ):
        hits, misses = machine.tlb_hits, machine.tlb_misses
        access()
        assert (machine.tlb_hits, machine.tlb_misses) == (hits + 1, misses)
    # Write-protecting one page in the middle splits the run: the store
    # faults at that page, after writing the three pages before it.
    space.protect(vaddr + 3 * PAGE_SIZE, PAGE_SIZE, Permissions.READ)
    fresh = bytes(reversed(payload))
    with pytest.raises(PageFault) as fault:
        machine.store(vaddr, fresh)
    assert fault.value.vaddr == vaddr + 3 * PAGE_SIZE
    assert fault.value.access == "write"
    split = 3 * PAGE_SIZE
    assert machine.load(vaddr, 8 * PAGE_SIZE) == fresh[:split] + payload[split:]


def test_range_cache_skips_non_contiguous_runs():
    """Runs over scattered frames stay correct: a bulk access walks one
    piece per extent."""
    machine, space, _ = _build()
    vaddr = space.map_new(4 * PAGE_SIZE, Permissions.RW)
    # Remap the second page to a different (later) frame: the run's
    # frames are no longer physically contiguous.  The intervening
    # mapping steals the recycled frame so the remap gets a fresh one.
    space.unmap(vaddr + PAGE_SIZE, PAGE_SIZE)
    space.map_new(PAGE_SIZE, Permissions.RW)
    space.map_new(PAGE_SIZE, Permissions.RW, vaddr=vaddr + PAGE_SIZE)
    frames = [space.entry(vaddr + i * PAGE_SIZE).frame for i in range(4)]
    assert frames != sorted(frames) or frames[1] != frames[0] + 1
    payload = b"\xab\xcd" * (2 * PAGE_SIZE)
    machine.store(vaddr, payload)
    assert machine.load(vaddr, 4 * PAGE_SIZE) == payload
    hits = machine.tlb_hits
    assert machine.load(vaddr, 4 * PAGE_SIZE) == payload
    assert machine.tlb_hits == hits + 3  # pages 0, 1 and 2-3


def test_dma_differential():
    """DMA translates on the TLB under its own access kind: it writes
    pages the CPU may not, across extents, and never lends the CPU its
    translation (the first loads run under PKRU 0, the key DMA fills
    under); results stay identical to the page walk."""
    rw, ro, none, foreign = (_page_va(page) for page in (0, 3, 4, 5))
    trace = [
        ("map", 0, 3, Permissions.RW, 0),
        ("map", 3, 1, Permissions.READ, 0),
        ("map", 4, 1, Permissions.NONE, 0),
        ("map", 5, 1, Permissions.RW, 2),
        ("dma_write", rw + 100, b"dma" * 2000),
        ("dma_read", rw + 100, 6000),
        ("dma_write", ro + 8, b"read-only"),
        ("load", ro + 8, 9),
        ("dma_write", none + 16, b"none"),
        ("load", none + 16, 4),
        ("pkru", True, pkru_for_keys(writable=(0,))),
        ("dma_write", foreign, b"foreign"),
        ("dma_read", foreign, 7),
        ("load", foreign, 7),
        ("dma_read", rw + 3 * PAGE_SIZE - 4, 16),
        ("dma_write", foreign + PAGE_SIZE - 2, b"gap!"),
    ]
    fast, slow, results = _run_trace(trace)
    unreadable = PageFault(none + 16, "read", "page not readable")
    protection = ProtectionFault(foreign, "read", 2, "test")
    unmapped = PageFault(foreign + PAGE_SIZE, "access", "not mapped in main")
    assert results[4:] == [
        ("stored", 6000),
        ("bytes", b"dma" * 2000),
        ("stored", 9),
        ("bytes", b"read-only"),
        ("stored", 4),
        ("fault", "PageFault", str(unreadable)),
        ("pkru", pkru_for_keys(writable=(0,))),
        ("stored", 7),
        ("bytes", b"foreign"),
        ("fault", "ProtectionFault", str(protection)),
        ("bytes", bytes(12) + b"read"),
        ("fault", "PageFault", str(unmapped)),
    ]
    # A negative size is refused by both machines, where the DMA
    # translation is cached (a hit) and where it is not (a miss).
    hit, miss = rw + 100, rw + PAGE_SIZE
    cache = fast.spaces["main"]._access_cache
    assert (hit >> PAGE_SHIFT, "dma", 0) in cache
    assert (miss >> PAGE_SHIFT, "dma", 0) not in cache
    for machine in (fast, slow):
        for vaddr in (hit, miss):
            with pytest.raises(ValueError, match="size must be non-negative"):
                machine.dma_read(machine.spaces["main"], vaddr, -4)
