"""The network stack micro-library (lwip analogue).

Structure mirrors what matters for the paper's evaluation:

- **zero-copy rx**: the NIC DMAs packets straight into shared-heap
  mbufs posted by the stack; the stack parses the 16-byte header (its
  own loads) and queues the mbuf on the destination socket — payload
  bytes are only touched by LibC's ``memcpy`` when the application
  calls ``recv``;
- **semaphore wakeups through LibC**: a blocked receiver is woken via
  ``libc.sem_v`` → ``sched.wake_one``, the netstack→LibC→scheduler
  crossing chain behind the paper's Fig. 5 observations;
- **pooled mbufs**: buffer-pool refills are batched
  (``malloc_shared_many``) so steady-state rx costs no allocator
  crossing per packet, like lwip's pbuf pools.

As network-facing unsafe C, its FlexOS spec is conservative
(``Read(*); Write(*); Call *``): the compatibility analysis isolates it
unless an SH-hardened variant is chosen — it is the paper's canonical
"untrusted network stack" compartment.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Generator

from repro.libos.library import MicroLibrary, export, export_blocking
from repro.libos.net.nic import NIC
from repro.libos.net.packet import HEADER_SIZE, MSS, Header, pack_header, unpack_header
from repro.libos.sched.base import YIELD, IdlePoll, IdleUntil
from repro.machine.faults import GateError


class _Segment:
    """One received packet queued on a connection.

    Plain slotted object, recycled through the stack's segment pool:
    the rx path creates one per packet, so pooling them (like the mbufs
    they describe) keeps steady-state receive free of allocation churn.
    """

    __slots__ = ("addr", "offset", "remaining")

    def __init__(self, addr: int, offset: int, remaining: int) -> None:
        self.addr = addr
        self.offset = offset
        self.remaining = remaining


@dataclasses.dataclass
class Connection:
    """A listening endpoint with its receive queue."""

    sockfd: int
    port: int
    rx_sem: int
    #: Address of this connection's control block (netstack static
    #: memory, updated on every packet and socket call — the stack's
    #: own instrumentable memory traffic).
    tcb_addr: int = 0
    peer_port: int = 40000
    rx_chain: deque = dataclasses.field(default_factory=deque)
    bytes_buffered: int = 0
    seq_out: int = 0
    rx_segments: int = 0


class NetstackLibrary(MicroLibrary):
    """Sockets, demux, and the rx driver loop."""

    NAME = "netstack"
    SPEC = """
    [Memory access] Read(*); Write(*)
    [Call] *
    [API] listen(port); recv(fd, buf, size); recv_timeout(fd, buf, size, t); \
send(fd, buf, size); close(fd); rx_process(budget); stop(); net_stats()
    """
    TRUE_BEHAVIOR = {
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": [
            "libc::memcpy",
            "libc::sem_new",
            "libc::sem_p",
            "libc::sem_v",
            "alloc::malloc_shared_many",
            "alloc::free_shared_many",
        ],
    }

    API_CONTRACTS = {
        "listen": [
            (lambda args: 0 < args[0] < 65536, "port must be in 1..65535"),
        ],
        "recv": [
            (lambda args: args[2] > 0, "recv size must be positive"),
        ],
        "recv_timeout": [
            (lambda args: args[2] > 0, "recv size must be positive"),
            (lambda args: args[3] >= 0, "timeout must be non-negative"),
        ],
        "send": [
            (lambda args: args[2] >= 0, "send size must be non-negative"),
        ],
    }
    POINTER_PARAMS = {"recv": (1,), "recv_timeout": (1,), "send": (1,)}
    CAP_GRANTS = {
        "recv": ((1, 2),),
        "recv_timeout": ((1, 2),),
        "send": ((1, 2),),
    }

    #: Size of one packet buffer (covers header + MSS).
    MBUF_SIZE = 2048
    #: Rx descriptor ring depth.
    RX_RING = 64
    #: Mbufs fetched per allocator refill crossing.
    MBUF_BATCH = 32
    #: Packets processed per rx-thread scheduling quantum (NAPI-like
    #: polling budget).
    RX_BUDGET = 32

    def __init__(self) -> None:
        super().__init__()
        self.nic = NIC(machine=None)  # machine bound at install
        self._conns_by_fd: dict[int, Connection] = {}
        self._conns_by_port: dict[int, Connection] = {}
        self._next_fd = 3
        self._mbuf_cache: list[int] = []
        #: Recycled :class:`_Segment` descriptors (host-side objects —
        #: no simulated cost, just less per-packet allocation churn).
        self._segment_pool: list[_Segment] = []
        self._stopped = False
        self.rx_drops = 0
        self._alloc = None
        self._libc = None

    #: Bytes per connection control block (TCP PCB analogue).
    TCB_SIZE = 64

    def on_install(self) -> None:
        self.nic.machine = self.machine
        self.nic.attach(self.compartment.address_space)
        # Packets drained per rx quantum (NAPI batch effectiveness).
        self._rx_batch_hist = self.machine.cpu.metrics.histogram("net.rx_batch_pkts")
        # Static state: the connection control-block table and the
        # port-demux hash table consulted on every received packet.
        self._tcb_table = self.alloc_static(64 * self.TCB_SIZE)
        self._port_table = self.alloc_static(64 * 16)

    def _touch_tcb(self, conn: Connection, update: bool = True) -> None:
        """Read (and optionally update) a connection's control block.

        The rx path rewrites seq/ack/window state; the socket-call path
        only consults it.
        """
        state = self.machine.load(conn.tcb_addr, 16 if update else 8)
        if update:
            self.machine.store(conn.tcb_addr, state[:8] + bytes(8))

    def on_boot(self) -> None:
        self._alloc = self.stub("alloc")
        self._libc = self.stub("libc")
        for _ in range(self.RX_RING):
            self.nic.post_rx_buffer(self._mbuf_get())

    # --- mbuf pool -------------------------------------------------------------

    def _mbuf_get(self) -> int:
        if not self._mbuf_cache:
            self._mbuf_cache.extend(
                self._alloc.call("malloc_shared_many", self.MBUF_SIZE, self.MBUF_BATCH)
            )
        return self._mbuf_cache.pop()

    def _mbuf_put(self, addr: int) -> None:
        self._mbuf_cache.append(addr)

    # --- segment pool -----------------------------------------------------------

    #: Upper bound on pooled segment descriptors (≈ ring depth × conns).
    SEGMENT_POOL_MAX = 256

    def _segment_get(self, addr: int, offset: int, remaining: int) -> _Segment:
        if self._segment_pool:
            segment = self._segment_pool.pop()
            segment.addr = addr
            segment.offset = offset
            segment.remaining = remaining
            return segment
        return _Segment(addr, offset, remaining)

    def _segment_put(self, segment: _Segment) -> None:
        if len(self._segment_pool) < self.SEGMENT_POOL_MAX:
            self._segment_pool.append(segment)

    # --- socket API ----------------------------------------------------------------

    @export
    def listen(self, port: int) -> int:
        """Open a listening endpoint on ``port``; returns a socket fd."""
        if port in self._conns_by_port:
            raise GateError(f"port {port} already bound")
        sockfd = self._next_fd
        self._next_fd += 1
        conn = Connection(
            sockfd=sockfd,
            port=port,
            rx_sem=self._libc.call("sem_new", 0, True),
            tcb_addr=self._tcb_table + (sockfd % 64) * self.TCB_SIZE,
        )
        self._conns_by_fd[sockfd] = conn
        self._conns_by_port[port] = conn
        return sockfd

    def _conn(self, sockfd: int) -> Connection:
        conn = self._conns_by_fd.get(sockfd)
        if conn is None:
            raise GateError(f"bad socket fd {sockfd}")
        return conn

    @export_blocking
    def recv(self, sockfd: int, buf_addr: int, size: int) -> Generator:
        """Receive up to ``size`` bytes into the caller's buffer.

        Blocks while no data is queued; returns the number of bytes
        copied (0 on shutdown).  The caller's buffer must be reachable
        from the LibC compartment (i.e. shared, as per the paper's
        shared-data annotations).
        """
        if size <= 0:
            raise ValueError("recv size must be positive")
        conn = self._conn(sockfd)
        # Socket-state reads are folded into the flat sock_op cost.
        self.charge(self.machine.cost.sock_op_ns)
        while conn.bytes_buffered == 0:
            if self._stopped:
                return 0
            yield from self._libc.call_gen("sem_p", conn.rx_sem)
        copied = 0
        while copied < size and conn.rx_chain:
            segment = conn.rx_chain[0]
            take = min(size - copied, segment.remaining)
            self._libc.call(
                "memcpy", buf_addr + copied, segment.addr + segment.offset, take
            )
            segment.offset += take
            segment.remaining -= take
            copied += take
            if segment.remaining == 0:
                conn.rx_chain.popleft()
                self._mbuf_put(segment.addr)
                self._segment_put(segment)
        conn.bytes_buffered -= copied
        return copied

    @export_blocking
    def recv_timeout(
        self, sockfd: int, buf_addr: int, size: int, timeout_ns: float
    ) -> Generator:
        """recv with a deadline; returns -1 on timeout (EAGAIN-style)."""
        if size <= 0:
            raise ValueError("recv size must be positive")
        if timeout_ns < 0:
            raise ValueError("timeout must be non-negative")
        conn = self._conn(sockfd)
        self.charge(self.machine.cost.sock_op_ns)
        deadline = self.machine.cpu.clock_ns + timeout_ns
        while conn.bytes_buffered == 0:
            if self._stopped:
                return 0
            acquired = yield from self._libc.call_gen(
                "sem_p_timeout", conn.rx_sem, deadline
            )
            if not acquired and conn.bytes_buffered == 0:
                return -1
        result = yield from self.recv(sockfd, buf_addr, size)
        return result

    @export
    def send(self, sockfd: int, buf_addr: int, size: int) -> int:
        """Transmit ``size`` bytes from the caller's buffer."""
        if size < 0:
            raise ValueError("send size must be non-negative")
        if size == 0:
            return 0
        conn = self._conn(sockfd)
        cost = self.machine.cost
        start_ns = self.machine.cpu.clock_ns
        self.charge(cost.sock_op_ns)
        offset = 0
        if self._libc.supports_async:
            # Batched segmentation: queue every segment's payload copy
            # on the LibC channel (one doorbell crossing per batch
            # instead of one gate crossing per MSS), then hand the
            # fully-built segments to the NIC.  Segments reach the wire
            # only after their copies completed.
            segments = []
            seq_cursor = conn.seq_out
            while offset < size:
                chunk = min(MSS, size - offset)
                mbuf = self._mbuf_get()
                header = Header(
                    src_port=conn.port,
                    dst_port=conn.peer_port,
                    seq=seq_cursor,
                    ack=0,
                    length=chunk,
                    flags=0,
                )
                self.machine.store(mbuf, pack_header(header))
                if chunk:
                    self._libc.submit(
                        "memcpy", mbuf + HEADER_SIZE, buf_addr + offset, chunk
                    )
                segments.append((mbuf, chunk))
                seq_cursor += chunk
                offset += chunk
            self._libc.drain()
            for mbuf, chunk in segments:
                self.charge(cost.pkt_fixed_ns + chunk * cost.pkt_byte_ns)
                self.nic.tx(mbuf, HEADER_SIZE + chunk)
                self._mbuf_put(mbuf)
                conn.seq_out += chunk
        else:
            while offset < size:
                chunk = min(MSS, size - offset)
                mbuf = self._mbuf_get()
                header = Header(
                    src_port=conn.port,
                    dst_port=conn.peer_port,
                    seq=conn.seq_out,
                    ack=0,
                    length=chunk,
                    flags=0,
                )
                self.machine.store(mbuf, pack_header(header))
                if chunk:
                    self._libc.call(
                        "memcpy", mbuf + HEADER_SIZE, buf_addr + offset, chunk
                    )
                self.charge(cost.pkt_fixed_ns + chunk * cost.pkt_byte_ns)
                self.nic.tx(mbuf, HEADER_SIZE + chunk)
                self._mbuf_put(mbuf)
                conn.seq_out += chunk
                offset += chunk
        tracer = self.machine.obs.tracer
        if tracer.enabled:
            tracer.complete(
                "netstack.send", "net", start_ns, bytes=size, port=conn.port
            )
        return size

    # --- rx path -----------------------------------------------------------------

    @export
    def rx_process(self, budget: int = RX_BUDGET) -> int:
        """Drain up to ``budget`` packets from the NIC into sockets."""
        machine = self.machine
        cpu = machine.cpu
        cost = cpu.cost
        nic = self.nic
        start_ns = cpu.clock_ns
        processed = 0
        while processed < budget:
            descriptor = nic.rx_poll()
            if descriptor is None:
                break
            addr, length = descriptor
            raw = machine.load(addr, HEADER_SIZE)
            header = unpack_header(raw)
            # Port-demux hash-table lookup (netstack's own memory).
            machine.load(self._port_table + (header.dst_port % 64) * 16, 16)
            cpu.charge(cost.pkt_fixed_ns + header.length * cost.pkt_byte_ns)
            # Keep the ring full: replace the consumed buffer.
            nic.post_rx_buffer(self._mbuf_get())
            conn = self._conns_by_port.get(header.dst_port)
            if conn is None or header.length == 0:
                if conn is not None and header.is_syn:
                    conn.peer_port = header.src_port
                else:
                    self.rx_drops += conn is None
                self._mbuf_put(addr)
                processed += 1
                continue
            conn.peer_port = header.src_port
            conn.rx_chain.append(
                self._segment_get(addr, HEADER_SIZE, header.length)
            )
            self._touch_tcb(conn)
            conn.bytes_buffered += header.length
            conn.rx_segments += 1
            # Per-packet readiness signal through LibC's semaphore (the
            # wait-queue traffic Fig. 5 attributes the scheduler-
            # isolation cost to); the semaphore is binary, so repeated
            # signals cannot accumulate stale tokens.
            self._libc.call("sem_v", conn.rx_sem)
            processed += 1
        if processed:
            self._rx_batch_hist.observe(processed)
            tracer = machine.obs.tracer
            if tracer.enabled:
                tracer.complete(
                    "netstack.rx_process", "net", start_ns, packets=processed
                )
        return processed

    def make_rx_loop(self):
        """Body factory for the driver thread (spawned by the image)."""
        idle = IdlePoll(self._replay_empty_poll)

        def body() -> Generator:
            while not self._stopped:
                processed = self.rx_process()
                if processed == 0:
                    # Nothing to do.  If the NIC knows exactly when the
                    # wire delivers the next packet, sleep until then —
                    # once everything else blocks too, the scheduler
                    # jumps the clock there instead of ticking empty
                    # polls.  Unknown arrival time (idle wire, closed
                    # client window) → keep polling, and let the
                    # scheduler replay the polls while nothing else
                    # can run.
                    ready = self.nic.next_rx_ready_ns()
                    if ready is None:
                        yield idle
                        continue
                    if ready > self.machine.cpu.clock_ns:
                        yield IdleUntil(ready)
                        continue
                yield YIELD

        return body

    def _replay_empty_poll(self, now: float) -> float | None:
        """The rx loop's next empty poll, replayed (see :class:`IdlePoll`).

        Once the stack stops, the loop's next resumption exits instead
        of polling.
        """
        if self._stopped:
            return None
        return self.nic.replay_empty_poll(now)

    # --- lifecycle / stats -----------------------------------------------------------

    @export
    def close(self, sockfd: int) -> None:
        """Close a socket: unbind the port, recycle queued buffers."""
        conn = self._conn(sockfd)
        self.charge(self.machine.cost.sock_op_ns)
        while conn.rx_chain:
            segment = conn.rx_chain.popleft()
            self._mbuf_put(segment.addr)
            self._segment_put(segment)
        conn.bytes_buffered = 0
        del self._conns_by_fd[sockfd]
        self._conns_by_port.pop(conn.port, None)

    @export
    def is_listening(self, port: int) -> bool:
        """True if a listener is bound to ``port``."""
        return port in self._conns_by_port

    @export
    def stop(self) -> None:
        """Shut the stack down; wakes blocked receivers with EOF."""
        self._stopped = True
        for conn in self._conns_by_fd.values():
            self._libc.call("sem_v", conn.rx_sem)

    @export
    def net_stats(self) -> dict[str, int]:
        """Counters for tests and benchmarks."""
        return {
            "rx_packets": self.nic.rx_packets,
            "tx_packets": self.nic.tx_packets,
            "rx_bytes": self.nic.rx_bytes,
            "tx_bytes": self.nic.tx_bytes,
            "rx_drops": self.rx_drops,
            "open_sockets": len(self._conns_by_fd),
        }
