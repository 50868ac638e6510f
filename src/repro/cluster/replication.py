"""Primary→follower replication of the journal-before-ack write stream.

The rediserver journals each commit group into its kv compartment
before sending the group's replies (:mod:`repro.apps.rediserver`).  In
a cluster, the same journal bytes are also pushed to a follower shard
on another machine *before* those replies — so an acked write exists on
two media, and failover can promote the follower without losing it.

The channel is modelled on the vm-rpc gate's notification discipline
(:mod:`repro.gates.vm_rpc`), because that is what it is: a doorbell
into a storage compartment that happens to live on a remote machine.
One doorbell carries one commit group:

- the **doorbell** charges the primary ``vm_notify_ns`` plus per-byte
  marshalling, and asks the fault injector for a delivery verdict
  (site ``repl-drop``); a dropped doorbell is retried after an
  exponentially backed-off ``vm_rpc_timeout_ns`` charge, and a
  :class:`ReplicationTimeout` surfaces once the retry budget is spent;
- the group then rides a fabric :class:`~repro.cluster.fabric.Link`
  (wire pacing + propagation latency) to the follower, whose clock is
  advanced to the arrival time; the follower pays dispatch plus a
  staging copy and applies every entry with one ``kv.journal`` call
  through its **own** kv gate, under the follower's flush policy;
- site ``repl-crash-primary`` fires *between* the follower's apply and
  the reply — the power-cut-between-doorbell-and-reply crash point:
  the follower holds records the primary never acked;
- the reply rides the link back; the primary's clock advances to its
  arrival, and the whole round-trip is observed into the
  ``repl.lag_ns`` histogram (the replication lag a cluster campaign
  cell reports).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.libos.kv.store import JOURNAL_DELETE, JOURNAL_ENTRY, MAX_JOURNAL
from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.cluster.fabric import Link, Node

#: Doorbell resends before a replication timeout (the vm-rpc gate's
#: own budget, ``repro.gates.vm_rpc.RPC_MAX_RETRIES``, is 3).
MAX_RETRIES = 4
#: Exponential backoff factor between retries.
BACKOFF = 2.0
#: Fixed reply size (ack header) riding the link back.
REPLY_BYTES = 32


class ReplicationTimeout(GateError):
    """Replication doorbell lost more times than the retry budget."""


class ReplicaChannel:
    """Host-side replication pipe from a primary node to its follower."""

    def __init__(self, primary: "Node", follower: "Node", link: "Link") -> None:
        self.primary = primary
        self.follower = follower
        self.link = link
        #: Records applied on the follower (its replication offset).
        self.applied = 0
        self.doorbells = 0
        self.retries = 0
        #: Shared staging buffer on the follower for incoming groups.
        self._staging: int | None = None

    # --- rediserver's replicator interface --------------------------------

    def journal(self, data: bytes) -> None:
        """Mirror one commit group's journal entries to the follower.

        The rediserver's replicator interface: ``data`` is the AOF
        buffer the primary just journaled, applied on the follower by
        one ``kv.journal`` call before the primary's replies go out.
        """
        primary_cpu = self.primary.image.machine.cpu
        cost = self.primary.image.machine.cost
        injector = self.primary.image.machine.injector
        payload_bytes = 16 + len(data)

        # Doorbell with vm-rpc retry discipline, charged to the primary
        # (this runs inside the primary's journal-before-ack path).
        attempts = 0
        while True:
            attempts += 1
            primary_cpu.charge(
                cost.vm_notify_ns + payload_bytes * cost.vm_copy_byte_ns
            )
            primary_cpu.bump("repl.doorbells")
            self.doorbells += 1
            verdict = "delivered"
            if injector is not None:
                verdict = injector.on_repl_op(
                    self.primary.name, self.follower.name
                )
            if verdict == "delivered":
                break
            if attempts > MAX_RETRIES:
                raise ReplicationTimeout(
                    f"replication {self.primary.name}->{self.follower.name}: "
                    f"doorbell lost {attempts} times"
                )
            self.retries += 1
            primary_cpu.bump("repl.retries")
            primary_cpu.charge(cost.vm_rpc_timeout_ns * BACKOFF ** (attempts - 1))

        sent_ns = primary_cpu.clock_ns
        arrival = self.link.delay(sent_ns, payload_bytes)

        # The follower cannot apply before the group arrives.
        follower_cpu = self.follower.image.machine.cpu
        if arrival > follower_cpu.clock_ns:
            follower_cpu.charge(arrival - follower_cpu.clock_ns)
        follower_cpu.charge(cost.vm_notify_ns)  # dispatch on the follower
        staging = self._staging_buf()
        machine = self.follower.image.machine
        kv_space = self.follower.image.compartment_of("kv").address_space
        machine.dma_write(kv_space, staging, data)
        follower_cpu.charge(len(data) * cost.vm_copy_byte_ns)
        applied = self.follower.image.call("kv", "journal", staging, len(data))
        follower_cpu.bump("repl.applied", applied)
        self.applied += applied

        # Crash point: primary power cut after the follower durably
        # applied but before the reply (and therefore before the
        # client's ack) — raises PowerFailure out of the serving path.
        if injector is not None:
            injector.on_repl_commit(self.primary.name, self.follower.name)

        # Ack rides back; the primary blocks until it lands (the write
        # is not acked to the client before the follower confirmed).
        reply_arrival = self.link.delay(follower_cpu.clock_ns, REPLY_BYTES)
        if reply_arrival > primary_cpu.clock_ns:
            primary_cpu.charge(reply_arrival - primary_cpu.clock_ns)
        lag = primary_cpu.clock_ns - sent_ns
        metrics = self.primary.image.machine.obs.metrics
        metrics.histogram("repl.lag_ns").observe(lag)

    def put(self, key: bytes, data: bytes) -> None:
        """Replicate one put: a one-entry :meth:`journal`."""
        self.journal(JOURNAL_ENTRY.pack(0, len(key), len(data)) + key + data)

    def delete(self, key: bytes) -> None:
        """Replicate one delete: a one-entry :meth:`journal`."""
        self.journal(JOURNAL_ENTRY.pack(JOURNAL_DELETE, len(key), 0) + key)

    def _staging_buf(self) -> int:
        if self._staging is None:
            self._staging = self.follower.image.call(
                "alloc", "malloc_shared", MAX_JOURNAL
            )
        return self._staging

    def stats(self) -> dict:
        return {
            "primary": self.primary.name,
            "follower": self.follower.name,
            "applied": self.applied,
            "doorbells": self.doorbells,
            "retries": self.retries,
        }
