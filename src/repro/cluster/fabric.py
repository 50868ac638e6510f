"""The inter-machine fabric: links between the NICs of separate machines.

Each shard of a cluster is a whole :class:`~repro.core.image.Image`
with its own :class:`~repro.machine.machine.Machine` and its own
simulated clock.  The fabric connects them:

- a :class:`Link` models one direction of a point-to-point connection,
  reusing the NIC wire-pacing cost model (per-packet framing cost +
  per-byte serialisation, :class:`~repro.machine.cycles.CostModel`'s
  ``wire_pkt_ns``/``wire_byte_ns``) plus a propagation latency, and
  serialises back-to-back messages the way a real wire does
  (``_busy_until_ns``);
- a :class:`Node` wraps one image, installing the fabric as the
  image's NIC client: inbound messages become packets the NIC's
  ``rx_source`` delivers once their arrival time has passed on the
  *receiver's* clock, and transmitted packets flow to the node's
  client sink (the cluster smart client);
- the :class:`Fabric` advances the whole cluster **conservatively**:
  it always runs the alive node with the smallest clock for a bounded
  slice, so no node ever consumes a message from the future — the
  multi-machine equivalent of a conservative parallel discrete-event
  simulation, and fully deterministic (ties broken by node name).

Liveness needs no special casing: when a node's inbox has only
future-dated messages its ``rx_source`` answers ``None``, the NIC
marks the wire idle, and the rx loop's empty polls keep that node's
clock advancing until the arrival time is reached.  The node also
tells the NIC ahead of time whether a poll at a given clock would find
its inbox head arrived, so the scheduler replays those empty polls in
a tight loop instead of running the driver for each.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable

from repro.libos.net.packet import build_packet

if TYPE_CHECKING:
    from repro.core.image import Image


class Link:
    """One direction of an inter-machine connection."""

    def __init__(
        self,
        latency_ns: float = 5_000.0,
        byte_ns: float | None = None,
        pkt_ns: float | None = None,
        cost=None,
    ) -> None:
        #: Propagation delay (a few µs: same-rack RTT ~10 µs).
        self.latency_ns = latency_ns
        self.byte_ns = byte_ns if byte_ns is not None else (
            cost.wire_byte_ns if cost is not None else 0.78
        )
        self.pkt_ns = pkt_ns if pkt_ns is not None else (
            cost.wire_pkt_ns if cost is not None else 20.0
        )
        #: The wire serialises: a message cannot start transmitting
        #: before the previous one finished.
        self._busy_until_ns = 0.0
        self.messages = 0
        self.bytes = 0

    def delay(self, now_ns: float, nbytes: int) -> float:
        """Schedule one message; returns its arrival time."""
        start = max(now_ns, self._busy_until_ns)
        done = start + self.pkt_ns + nbytes * self.byte_ns
        self._busy_until_ns = done
        self.messages += 1
        self.bytes += nbytes
        return done + self.latency_ns


class Node:
    """One machine on the fabric (an image plus its NIC wiring)."""

    def __init__(
        self, fabric: "Fabric", name: str, image: "Image", port: int
    ) -> None:
        self.fabric = fabric
        self.name = name
        self.image = image
        self.port = port
        self.alive = True
        #: Inbound heap of (arrival_ns, seq, payload) — payloads become
        #: packets once the *receiver's* clock reaches the arrival time.
        self._inbox: list[tuple[float, int, bytes]] = []
        self._inbox_seq = 0
        self._tx_seq = 0
        #: Fabric links, one per direction (client → node, node → client).
        self.downlink = Link(
            latency_ns=fabric.latency_ns, cost=image.machine.cost
        )
        self.uplink = Link(
            latency_ns=fabric.latency_ns, cost=image.machine.cost
        )
        #: Receives transmitted payloads (the smart client's reply path).
        self.client_sink: Callable[[str, bytes], None] | None = None
        #: The image's CPU, whose clock gates every inbox arrival.
        self._cpu = image.machine.cpu
        netstack = image.lib("netstack")
        netstack.nic.attach_source(self._rx_source, self._rx_quiet)
        netstack.nic.tx_sink = self._tx_sink

    @property
    def clock_ns(self) -> float:
        return self._cpu.clock_ns

    # --- fabric side ------------------------------------------------------

    def deliver(self, payload: bytes, sent_at_ns: float | None = None) -> float:
        """Schedule ``payload`` for delivery to this node.

        ``sent_at_ns`` defaults to this node's own clock (an external
        client reacting to this node's replies).  Returns the arrival
        time on the node's clock.
        """
        now = sent_at_ns if sent_at_ns is not None else self.clock_ns
        arrival = self.downlink.delay(now, len(payload))
        heapq.heappush(self._inbox, (arrival, self._inbox_seq, payload))
        self._inbox_seq += 1
        return arrival

    # --- NIC callbacks ----------------------------------------------------

    def _rx_source(self) -> bytes | None:
        inbox = self._inbox
        if not inbox:
            return None
        arrival, _, payload = inbox[0]
        if arrival > self._cpu.clock_ns:
            # Still in flight: the NIC marks the wire idle and the rx
            # loop's empty polls advance this node's clock to meet it.
            return None
        heapq.heappop(inbox)
        packet = build_packet(self.port, payload, seq=self._tx_seq)
        self._tx_seq += len(payload)
        return packet

    def _rx_quiet(self, now_ns: float) -> bool:
        """True when :meth:`_rx_source` at clock ``now_ns`` answers None:
        nothing in the inbox has arrived by then."""
        inbox = self._inbox
        return not inbox or inbox[0][0] > now_ns

    def _tx_sink(self, frame: bytes) -> None:
        from repro.libos.net.packet import unpack_header

        header = unpack_header(frame)
        payload = frame[16 : 16 + header.length]
        # Replies ride the uplink: pace and count them, then hand the
        # payload to the client (whose machine is not under test).
        self.uplink.delay(self.clock_ns, len(payload))
        if self.client_sink is not None:
            self.client_sink(self.name, payload)


class Fabric:
    """A set of nodes advanced on one conservative simulated timeline."""

    def __init__(self, latency_ns: float = 5_000.0) -> None:
        self.latency_ns = latency_ns
        self.nodes: dict[str, Node] = {}
        #: The node currently executing (PowerFailure attribution).
        self.current: Node | None = None

    def add_node(self, name: str, image: "Image", port: int) -> Node:
        if name in self.nodes:
            raise ValueError(f"fabric already has a node {name!r}")
        node = Node(self, name, image, port)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def kill(self, name: str) -> Node:
        """Power off a node (it stops being scheduled; inbox freezes)."""
        node = self.nodes[name]
        node.alive = False
        return node

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes.values() if node.alive]

    @property
    def clock_ns(self) -> float:
        """Cluster time: the max clock across alive nodes."""
        clocks = [node.clock_ns for node in self.alive_nodes()]
        return max(clocks) if clocks else 0.0

    def run(
        self,
        until: Callable[[], bool],
        max_rounds: int = 200_000,
        slice_switches: int = 400,
    ) -> None:
        """Advance nodes until ``until()`` holds.

        Conservative stepping: each round runs the alive node with the
        smallest clock for at most ``slice_switches`` context switches
        (ties broken by name), so no node processes a message before
        its sender's clock reached the send time.  Raises if the
        condition is still false after ``max_rounds`` rounds (a wedged
        cluster fails fast instead of spinning forever).

        A :class:`~repro.machine.faults.PowerFailure` escaping a node
        propagates to the caller with :attr:`current` still naming the
        node that died — campaign harnesses use that for attribution.
        """
        for _ in range(max_rounds):
            if until():
                return
            candidates = self.alive_nodes()
            if not candidates:
                raise RuntimeError("no alive nodes on the fabric")
            node = min(candidates, key=lambda n: (n.clock_ns, n.name))
            # Left pointing at the raiser when an exception (e.g. a
            # PowerFailure) escapes — campaign attribution depends on it.
            self.current = node
            node.image.run(until=until, max_switches=slice_switches)
        raise RuntimeError(
            f"fabric.run: condition not reached after {max_rounds} rounds"
        )
