"""The simulated NIC: DMA rings fed by a workload source.

The paper measures server-side throughput with an external client
(iperf client, redis-benchmark).  Here the "wire" is a pair of
callbacks installed by the workload harness:

- ``rx_source()`` returns the next packet's bytes (or ``None`` when the
  client currently has nothing to send) — pulled whenever the driver
  polls with posted buffers available, and DMA'd directly into
  stack-posted packet buffers (zero-copy rx, as with real descriptor
  rings);
- ``tx_sink(bytes)`` receives transmitted packets (the client side of
  the connection), enabling closed-loop workloads such as the Redis
  benchmark where each response triggers the next request.

A source that can look ahead — one that knows, for a given clock,
that it would answer ``None`` — is installed with :meth:`NIC.attach_source`
instead.  Its empty polls of an idle wire can then be replayed without
running the driver (:meth:`NIC.replay_empty_poll`); a source installed
by plain assignment never qualifies.

DMA bypasses protection keys and charges no CPU time (the client's
machine is not the system under test); driver interactions
(descriptor/doorbell work) charge ``nic_op_ns``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.machine.address_space import AddressSpace
    from repro.machine.machine import Machine


class NIC:
    """Simulated network interface with rx/tx descriptor rings."""

    def __init__(self, machine: "Machine", name: str = "nic0") -> None:
        self.machine = machine
        self.name = name
        self.space: "AddressSpace | None" = None
        #: Client callbacks (installed by the workload harness).
        self.rx_source: Callable[[], bytes | None] | None = None
        self.tx_sink: Callable[[bytes], None] | None = None
        #: Look-ahead of the source installed by :meth:`attach_source`,
        #: valid only while that source is still ``rx_source``.
        self._rx_quiet: Callable[[float], bool] | None = None
        self._quiet_source: Callable[[], bytes | None] | None = None
        #: Posted (empty) rx buffers: addresses of stack-owned mbufs.
        self._rx_posted: deque[int] = deque()
        #: Filled rx descriptors: (mbuf address, packet length).
        self._rx_done: deque[tuple[int, int]] = deque()
        #: Simulated time at which the wire can deliver the next packet
        #: (line-rate pacing; see CostModel.wire_byte_ns).
        self._wire_ready_ns = 0.0
        #: True once the client source answered None (nothing in
        #: flight): ``_wire_ready_ns`` is then not a meaningful arrival
        #: time.  Cleared by :meth:`tx` — a transmitted response may
        #: open the client's window — and by the next successful pull.
        self._wire_idle = False
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0

    def attach(self, space: "AddressSpace") -> None:
        """Bind the NIC's DMA engine to an address space."""
        self.space = space

    def attach_source(
        self,
        source: Callable[[], bytes | None],
        quiet: Callable[[float], bool],
    ) -> None:
        """Install a client source together with its look-ahead.

        ``quiet(now)`` must be True exactly when ``source()`` called at
        clock ``now`` would answer None and change nothing.
        """
        self.rx_source = source
        self._rx_quiet = quiet
        self._quiet_source = source

    # --- receive path ---------------------------------------------------------

    def post_rx_buffer(self, addr: int) -> None:
        """Driver posts an empty buffer for incoming packets."""
        self._rx_posted.append(addr)

    def _pull_from_wire(self, now: float, cost) -> None:
        """DMA client packets that the wire has finished delivering.

        The link serialises bytes at a finite rate: a packet becomes
        visible only once the simulated clock (``now``) has passed its
        arrival time.  When the CPU outruns the wire, polls come back
        empty and the receiver ends up blocking — line rate becomes the
        bottleneck, exactly the large-buffer regime of Figure 3.
        """
        if self.rx_source is None or self.space is None:
            return
        # Packets keep arriving while the CPU is busy, so a backlog
        # accumulates and is delivered as a burst at the next poll —
        # bounded by a TCP-window's worth of in-flight data (and by the
        # posted-buffer ring).
        max_backlog_ns = 64 * (cost.wire_pkt_ns + 1500 * cost.wire_byte_ns)
        if self._wire_ready_ns < now - max_backlog_ns:
            self._wire_ready_ns = now - max_backlog_ns
        while self._rx_posted and now >= self._wire_ready_ns:
            packet = self.rx_source()
            if packet is None:
                # The wire went idle (client window empty): the next
                # transmission cannot start earlier than now.
                self._wire_idle = True
                if self._wire_ready_ns < now:
                    self._wire_ready_ns = now
                return
            self._wire_idle = False
            addr = self._rx_posted.popleft()
            self.machine.dma_write(self.space, addr, packet)
            self._rx_done.append((addr, len(packet)))
            self.rx_packets += 1
            self.rx_bytes += len(packet)
            self._wire_ready_ns += (
                cost.wire_pkt_ns + len(packet) * cost.wire_byte_ns
            )

    def rx_poll(self) -> tuple[int, int] | None:
        """Driver polls for a received packet: (mbuf addr, length).

        Charges one descriptor operation when a packet is returned; an
        empty poll is a cheap doorbell read.
        """
        cpu = self.machine.cpu
        cost = cpu.cost
        done = self._rx_done
        if not done:
            self._pull_from_wire(cpu.clock_ns, cost)
            if not done:
                cpu.charge(cost.nic_op_ns / 8)
                return None
        cpu.charge(cost.nic_op_ns)
        cpu.bump("nic_rx")
        return done.popleft()

    def replay_empty_poll(self, now: float) -> float | None:
        """Replay an empty :meth:`rx_poll` at clock ``now``; its cost.

        Certain only on an idle wire whose source looks ahead: nothing
        DMA'd, a buffer posted, the wire idle and free by ``now``, and
        the source quiet at ``now``.  Such a poll asks the source once,
        gets None, and moves the wire-ready time to ``now`` — applied
        here — then charges ``nic_op_ns / 8``, returned for the caller
        to charge in the polling thread's context.  Otherwise nothing
        changes and the result is None: the poll must run for real.
        """
        quiet = self._rx_quiet
        if (
            quiet is None
            or self._rx_done
            or not self._wire_idle
            or not self._rx_posted
            or self._wire_ready_ns > now
            or self.rx_source is not self._quiet_source
            or self.space is None
            or not quiet(now)
        ):
            return None
        self._wire_ready_ns = now
        return self.machine.cpu.cost.nic_op_ns / 8

    def next_rx_ready_ns(self) -> float | None:
        """When the wire will next have a packet ready, if known.

        Returns None when data is already waiting, when no client is
        attached, or when the wire is idle (the client's window is
        closed, so no arrival time exists) — callers must then keep
        polling.  Otherwise the next packet finishes arriving at
        exactly ``_wire_ready_ns``, so an rx thread that found nothing
        to do may sleep until then (:class:`IdleUntil`) instead of
        burning empty-poll quanta.
        """
        if self._rx_done or self.rx_source is None or self._wire_idle:
            return None
        return self._wire_ready_ns

    @property
    def rx_pending(self) -> int:
        """Packets DMA'd and waiting for the driver."""
        return len(self._rx_done)

    @property
    def rx_buffers_posted(self) -> int:
        """Empty buffers currently posted."""
        return len(self._rx_posted)

    # --- transmit path -----------------------------------------------------------

    def tx(self, addr: int, length: int) -> None:
        """Transmit ``length`` bytes from the mbuf at ``addr``."""
        if self.space is None:
            raise GateError(f"{self.name}: not attached")
        self.machine.cpu.charge(self.machine.cost.nic_op_ns)
        self.machine.cpu.bump("nic_tx")
        # A response may open the client's window: ask the source again.
        self._wire_idle = False
        data = self.machine.dma_read(self.space, addr, length)
        self.tx_packets += 1
        self.tx_bytes += length
        if self.tx_sink is not None:
            self.tx_sink(data)
