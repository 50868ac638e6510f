"""Queue-channel benchmark: batched doorbells vs per-op gate crossings.

Measures the tentpole claim of the submission/completion-queue channels:
enqueueing operations into a shared ring and ringing the doorbell once
per batch amortises the per-crossing tax of isolation without changing
what the operations do.

- **kv.put**: an application compartment journals puts into the storage
  compartment, each a one-entry ``kv.journal`` call, sync (one crossing
  per put) vs queued at batch 8, across isolation backends.
- **netstack send**: multi-segment socket sends, where the network
  stack copies each MSS-sized payload chunk through LibC — sync (one
  crossing per segment) vs a queued ``netstack->libc`` edge (one
  doorbell per send call).
- **batch sweep**: per-op crossing cost for kv.put as the batch size
  grows (1, 2, 8, 32) on one backend.

The headline metric is **per-op crossing cost**: boundary crossings on
the measured edge × the backend's per-crossing round-trip cost
(:func:`repro.gates.registry.relative_crossing_cost`) ÷ operations —
i.e. what the caller pays in doorbells.  ``sim_ns_per_op`` (wall
simulated time) is reported alongside: it includes the ring traffic the
queue adds, so it improves less than the crossing cost does.  Every
cell is recorded under ``queue`` in ``benchmarks/results.json``.
"""

from __future__ import annotations

from repro import BuildConfig, build_image
from repro.gates.registry import relative_crossing_cost
from repro.libos.kv.store import JOURNAL_ENTRY
from repro.libos.net.packet import MSS

KV_BACKENDS = ("mpk-shared", "mpk-switched", "vm-rpc")
NET_BACKENDS = ("mpk-shared", "cheri")
BATCH = 8
SWEEP_BATCHES = (1, 2, 8, 32)
PUTS = 400
SENDS = 64


def _edge_channel(image, caller: str, callee: str):
    return image.lib(caller).stub(callee)._channel


def _build_kv(backend: str, batch: int | None):
    queue_edges = {"libc->kv": f"batch:{batch}"} if batch else {}
    return build_image(
        BuildConfig(
            libraries=["libc", "blk", "kv"],
            compartments=[["blk"], ["kv"], ["sched", "alloc", "libc"]],
            backend=backend,
            queue_edges=queue_edges,
        )
    )


def kv_cell(backend: str, batch: int | None) -> dict:
    """ns and crossings per put, sync (batch=None) or queued."""
    image = _build_kv(backend, batch)
    libc = image.lib("libc")
    stub = libc.stub("kv")
    channel = stub._channel
    # One staging buffer per in-flight submission: a queued put reads
    # its entry at flush time, so the writer must not reuse a buffer
    # before the batch drains (same hazard the kv store's own write
    # ring solves).
    ring = max(1, batch or 1)
    bufs = [image.call("alloc", "malloc_shared", 4096) for _ in range(ring)]
    space = libc.compartment.address_space
    context = libc.compartment.make_context("bench")
    machine = image.machine
    machine.cpu.push_context(context)
    try:
        crossings_before = channel.crossings
        start = image.clock_ns
        for index in range(PUTS):
            value = (b"%06d" % index) * 8  # 48 bytes
            key = b"bench%04d" % (index % 32)
            entry = JOURNAL_ENTRY.pack(0, len(key), len(value)) + key + value
            buf = bufs[index % ring]
            machine.dma_write(space, buf, entry)
            if batch:
                stub.submit("journal", buf, len(entry))
            else:
                stub.call("journal", buf, len(entry))
        if batch:
            stub.flush()
            failed = [c for c in stub.poll() if not c.ok]
            assert not failed, failed[0].error
        elapsed = image.clock_ns - start
        crossings = channel.crossings - crossings_before
    finally:
        machine.cpu.pop_context()
    per_crossing = relative_crossing_cost(backend)
    return {
        "workload": "kv.put",
        "backend": backend,
        "mode": f"queued(batch:{batch})" if batch else "sync",
        "batch": batch or 1,
        "ops": PUTS,
        "edge_crossings": crossings,
        "crossing_cost_per_op_ns": crossings * per_crossing / PUTS,
        "sim_ns_per_op": elapsed / PUTS,
    }


def _build_net(backend: str, batch: int | None):
    queue_edges = {"netstack->libc": f"batch:{batch}"} if batch else {}
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack"],
            compartments=[["netstack"], ["sched", "alloc", "libc"]],
            backend=backend,
            queue_edges=queue_edges,
        )
    )


def net_cell(backend: str, batch: int | None) -> dict:
    """Crossings per transmitted segment for the netstack->libc edge.

    Each send covers ``batch`` (or 8, for the sync baseline) MSS-sized
    segments, so the stack issues that many payload copies through
    LibC per call — one gate crossing each on the sync path, one
    doorbell per send on the queued path.
    """
    image = _build_net(backend, batch)
    channel = _edge_channel(image, "netstack", "libc")
    segments_per_send = batch or BATCH
    sockfd = image.call("netstack", "listen", 5001)
    size = segments_per_send * MSS
    buf = image.call("alloc", "malloc_shared", size)
    space = image.lib("netstack").compartment.address_space
    image.machine.dma_write(space, buf, b"\xa5" * size)
    crossings_before = channel.crossings
    start = image.clock_ns
    for _ in range(SENDS):
        sent = image.call("netstack", "send", sockfd, buf, size)
        assert sent == size
    elapsed = image.clock_ns - start
    crossings = channel.crossings - crossings_before
    segments = image.call("netstack", "net_stats")["tx_packets"]
    assert segments == SENDS * segments_per_send
    per_crossing = relative_crossing_cost(backend)
    return {
        "workload": "netstack.send",
        "backend": backend,
        "mode": f"queued(batch:{batch})" if batch else "sync",
        "batch": batch or 1,
        "ops": segments,
        "edge_crossings": crossings,
        "crossing_cost_per_op_ns": crossings * per_crossing / segments,
        "sim_ns_per_op": elapsed / segments,
    }


def _record(report, cell: dict) -> None:
    report.value(
        "queue", f"{cell['workload']}/{cell['backend']}/{cell['mode']}", cell
    )
    report.row(
        "Queue channels (per-op ns, simulated)",
        f"{cell['workload']:13s} {cell['backend']:12s} {cell['mode']:16s} "
        f"crossing {cell['crossing_cost_per_op_ns']:9.1f}  "
        f"wall {cell['sim_ns_per_op']:9.1f}",
    )


def test_queue_kv_put_amortises_crossings(report):
    """>=2x lower per-op crossing cost at batch 8, fewer edge crossings."""
    for backend in KV_BACKENDS:
        sync = kv_cell(backend, None)
        queued = kv_cell(backend, BATCH)
        _record(report, sync)
        _record(report, queued)
        assert (
            queued["crossing_cost_per_op_ns"]
            <= sync["crossing_cost_per_op_ns"] / 2
        ), backend
        assert queued["edge_crossings"] < sync["edge_crossings"]


def test_queue_netstack_send_amortises_crossings(report):
    """>=2x lower per-op crossing cost at batch 8 for multi-segment sends."""
    for backend in NET_BACKENDS:
        sync = net_cell(backend, None)
        queued = net_cell(backend, BATCH)
        _record(report, sync)
        _record(report, queued)
        assert (
            queued["crossing_cost_per_op_ns"]
            <= sync["crossing_cost_per_op_ns"] / 2
        ), backend


def test_queue_batch_sweep_is_monotonic(report):
    """kv.put on mpk-shared amortises monotonically in batch size."""
    sweep = [kv_cell("mpk-shared", batch) for batch in SWEEP_BATCHES]
    report.value("queue", "sweep", sweep)
    for smaller, larger in zip(sweep, sweep[1:]):
        assert (
            larger["crossing_cost_per_op_ns"]
            <= smaller["crossing_cost_per_op_ns"]
        )
