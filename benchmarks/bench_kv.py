"""KV durability benchmark: flush policy vs throughput, recovery vs log size.

Not a figure from the paper, but the measurement behind the durable
storage subsystem's design choices:

- **throughput vs flush policy x backend** — simulated cost of one
  put, a one-entry ``kv.journal`` call, under ``every-write`` (a flush
  barrier per mutation) and ``batch:16`` (amortized barriers), across
  the gate menu.  Batching
  should recover most of the flush cost regardless of the isolation
  backend; the backends should separate by their per-crossing cost.
- **recovery time vs log size, before/after compaction** — replaying a
  longer log costs proportionally more; compaction collapses the log
  to the live set so recovery cost tracks *data*, not *history*.

Both are recorded under ``kv`` in ``benchmarks/results.json``.
"""

from __future__ import annotations

from repro import BuildConfig, build_image
from repro.libos.blk.blkdev import DiskMedium
from repro.libos.kv.store import JOURNAL_ENTRY

BACKENDS = ("none", "mpk-shared", "mpk-switched", "cheri")
POLICIES = ("every-write", "batch:16")
WRITES = 600
LOG_SIZES = (100, 300, 600)
#: Distinct keys the recovery logs cycle over.
LIVE_KEYS = 30


def _build(medium: DiskMedium, backend: str):
    image = build_image(
        BuildConfig(
            libraries=["libc", "blk", "kv"],
            compartments=[["blk", "kv"], ["sched", "alloc", "libc"]],
            backend=backend,
        )
    )
    image.lib("blk").attach_medium(medium)
    return image


def _put_entry(key: bytes, index: int) -> bytes:
    """A one-entry journal putting a 48-byte value under ``key``."""
    value = (b"%06d" % index) * 8
    return JOURNAL_ENTRY.pack(0, len(key), len(value)) + key + value


def _fill(image, buf, count: int):
    """``count`` puts cycling over ``LIVE_KEYS`` distinct keys."""
    space = image.compartments[0].address_space
    for index in range(count):
        entry = _put_entry(b"bench%04d" % (index % LIVE_KEYS), index)
        image.machine.dma_write(space, buf, entry)
        image.call("kv", "journal", buf, len(entry))


def throughput_cell(backend: str, policy: str) -> dict:
    """Simulated ns/put for one (backend, flush-policy) pair.

    Puts are driven from the application compartment through a real
    stub, so every mutation pays one gate crossing into the storage
    compartment — the backends separate by crossing cost.
    """
    image = _build(DiskMedium(), backend)
    image.call("kv", "set_flush_policy", policy)
    buf = image.call("alloc", "malloc_shared", 4096)
    space = image.compartments[0].address_space
    libc = image.lib("libc")
    stub = libc.stub("kv")
    context = libc.compartment.make_context("bench")
    image.machine.cpu.push_context(context)
    try:
        start = image.clock_ns
        for index in range(WRITES):
            entry = _put_entry(b"bench%04d" % (index % 32), index)
            image.machine.dma_write(space, buf, entry)
            stub.call("journal", buf, len(entry))
        elapsed = image.clock_ns - start
    finally:
        image.machine.cpu.pop_context()
    stats = image.call("blk", "blk_stats")
    return {
        "backend": backend,
        "policy": policy,
        "writes": WRITES,
        "ns_per_put": elapsed / WRITES,
        "puts_per_msec": WRITES / (elapsed / 1e6),
        "flushes": stats["flushes"],
        "medium_writes": stats["medium_writes"],
    }


def throughput_matrix() -> list[dict]:
    return [
        throughput_cell(backend, policy)
        for backend in BACKENDS
        for policy in POLICIES
    ]


def recovery_curve() -> list[dict]:
    """Recovery cost for growing logs, before and after compaction."""
    points = []
    for size in LOG_SIZES:
        medium = DiskMedium()
        image = _build(medium, "none")
        image.call("kv", "set_flush_policy", "batch:8")
        buf = image.call("alloc", "malloc_shared", 4096)
        _fill(image, buf, size)
        image.call("kv", "sync")

        fresh = _build(medium, "none")
        before = fresh.call("kv", "recover")
        fresh.call("kv", "compact")
        compacted = _build(medium, "none")
        after = compacted.call("kv", "recover")
        points.append({
            "log_records": size,
            "live_keys": before["live_keys"],
            "recovery_ns": before["recovery_ns"],
            "records_replayed": before["records"],
            "post_compaction_recovery_ns": after["recovery_ns"],
            "post_compaction_records": after["records"],
        })
    return points


def test_kv_flush_policy_throughput(report):
    """Batching amortizes flush barriers; gates separate by crossing cost."""
    by_cell = {}
    for cell in throughput_matrix():
        by_cell[(cell["backend"], cell["policy"])] = cell
        report.row(
            "KV put cost (ns, simulated)",
            f"{cell['backend']:13s} {cell['policy']:12s} "
            f"{cell['ns_per_put']:9.1f} ({cell['flushes']} flushes)",
        )
        report.value("kv", f"{cell['backend']}/{cell['policy']}", cell)
    for backend in BACKENDS:
        every = by_cell[(backend, "every-write")]
        batch = by_cell[(backend, "batch:16")]
        # Strictly fewer flushes, strictly cheaper puts.
        assert batch["flushes"] < every["flushes"], backend
        assert batch["ns_per_put"] < every["ns_per_put"], backend
    assert (
        by_cell[("none", "batch:16")]["ns_per_put"]
        < by_cell[("mpk-shared", "batch:16")]["ns_per_put"]
        < by_cell[("mpk-switched", "batch:16")]["ns_per_put"]
    )


def test_kv_recovery_scales_with_log_not_history(report):
    """Longer history costs more to replay, until compaction collapses it."""
    curve = recovery_curve()
    for point in curve:
        report.row(
            "KV recovery vs log size (ns, simulated)",
            f"log={point['log_records']:4d} "
            f"before={point['recovery_ns']:8.0f} "
            f"after-compaction={point['post_compaction_recovery_ns']:8.0f}",
        )
    report.value("kv", "recovery_curve", curve)
    for shorter, longer in zip(curve, curve[1:]):
        assert longer["recovery_ns"] > shorter["recovery_ns"]
    largest = curve[-1]
    assert largest["post_compaction_recovery_ns"] < largest["recovery_ns"]
    # After compaction each live key is one record, and every one of
    # them comes back.
    for point in curve:
        assert point["post_compaction_records"] == point["live_keys"]
