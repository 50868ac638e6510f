"""The cluster-aware smart client: routing, MOVED chasing, ground truth.

:class:`ClusterClient` is the closed-loop load source for a
:class:`~repro.cluster.cluster.RedisCluster`.  It speaks RESP, routes
each request to the shard owning the key (per its view of the shard
map), keeps a bounded window of outstanding requests per node, and —
crucially for the campaigns — maintains **ground truth**: the exact
set of key→value pairs the cluster has *acked*.  Verdicts like
``no-acked-write-lost`` are judged against this set.

Redirect handling mirrors a real redis cluster client: a ``-MOVED
<slot> <owner>`` reply re-enqueues the request toward the named owner
and counts the redirect.  Failover handling mirrors an at-least-once
retry policy: when a node dies, its outstanding requests are aborted
back onto the pending queue in issue order (``SET`` is idempotent per
key, so replays are safe; an acked value is never rolled back).

Dispatch keeps one FIFO queue per owning shard.  Every request carries
a FIFO position: issues count up, and MOVED chases and abort replays,
which go to the front, count down.  :meth:`ClusterClient.pump` routes
each request once, when it first sees it, and again only when the
shard map's epoch moves; it then takes the heads of the queues whose
serving node has window room and delivers them in position order.
That is the order a scan of one whole FIFO would deliver them in, at
O(shards + dispatched) per pump instead of O(backlog).
"""

from __future__ import annotations

import collections
import dataclasses

from repro.apps import resp
from repro.cluster.shardmap import slot_of

#: Per-node window of outstanding (unanswered) requests.
DEFAULT_WINDOW = 4


@dataclasses.dataclass
class Request:
    """One in-flight client command."""

    op: str  # "set" | "get" | "del"
    key: bytes
    value: bytes | None
    payload: bytes
    attempts: int = 0
    #: Owner override from a MOVED redirect (chased before the map).
    forced_shard: str | None = None
    #: FIFO position: what orders the owner queues and the deliveries.
    position: int = 0


class ClusterClient:
    """Closed-loop RESP client driving a :class:`RedisCluster`."""

    def __init__(self, cluster, window: int = DEFAULT_WINDOW) -> None:
        self.cluster = cluster
        self.window = window
        #: Requests not routed yet, in FIFO position order: front
        #: inserts (MOVED chases, abort replays) ahead of issues.
        self.pending: collections.deque[Request] = collections.deque()
        #: Routed, undispatched requests per owning shard name, each
        #: queue in FIFO position order.
        self._queues: dict[str, collections.deque[Request]] = {}
        #: The shard map epoch the queues were routed under.
        self._routed_epoch = cluster.map.epoch
        #: Next positions at the back and (counting down) the front.
        self._back = 0
        self._front = 0
        #: FIFO of outstanding requests per node name (RESP replies come
        #: back in request order on a connection).
        self.outstanding: dict[str, collections.deque[Request]] = {}
        #: Incremental RESP reply parser per node connection.
        self._parsers: dict[str, resp.ReplyParser] = {}
        #: Ground truth: key → value for every *acked* SET (deletes
        #: remove the key).  Campaign verdicts compare against this.
        self.acked: dict[bytes, bytes] = {}
        self.issued = 0
        self.completed = 0
        self.moved = 0
        self.retried = 0
        self.errors = 0
        #: GETs whose reply disagreed with the acked ground truth.
        self.stale_reads = 0
        #: Stale replies by key (campaign reporting).
        self.stale_keys: list[bytes] = []
        #: Routing token ``(cluster.epoch, map.epoch)`` of the last
        #: pump, which left every queued request parked.  ``None`` once
        #: an enqueue or an opened window invalidates it.
        self._parked_at: tuple[int, int] | None = None
        cluster.attach_client(self)

    # --- enqueue ----------------------------------------------------------

    def _issue(self, request: Request) -> None:
        self.issued += 1
        request.position = self._back
        self._back += 1
        self.pending.append(request)
        self._parked_at = None

    def _requeue(self, requests) -> None:
        """Re-enqueue ``requests`` ahead of everything, in their order."""
        for request in reversed(requests):
            self._front -= 1
            request.position = self._front
            self.pending.appendleft(request)
        self._parked_at = None

    def set(self, key: bytes, value: bytes) -> None:
        self._issue(
            Request("set", key, value, resp.encode_command(b"SET", key, value))
        )

    def get(self, key: bytes) -> None:
        self._issue(Request("get", key, None, resp.encode_command(b"GET", key)))

    def delete(self, key: bytes) -> None:
        self._issue(Request("del", key, None, resp.encode_command(b"DEL", key)))

    # --- pumping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.completed >= self.issued

    def _owner_queue(self, request: Request) -> collections.deque[Request]:
        shard = request.forced_shard or self.cluster.map.owner(request.key)
        queue = self._queues.get(shard)
        if queue is None:
            queue = self._queues[shard] = collections.deque()
        return queue

    def _route(self) -> None:
        """Move :attr:`pending` onto the owner queues, keeping each
        queue in position order; if the map moved since the queues were
        routed, first re-route every queued request, in position order."""
        epoch = self.cluster.map.epoch
        if self._routed_epoch != epoch:
            self._routed_epoch = epoch
            queued = sorted(
                (request for queue in self._queues.values() for request in queue),
                key=lambda request: request.position,
            )
            self._queues = {}
            for request in queued:
                self._owner_queue(request).append(request)
        pending = self.pending
        # A front insert precedes every request queued before it, and an
        # issue follows them all: the front inserts lead ``pending``.
        front = []
        while pending and pending[0].position < 0:
            front.append(pending.popleft())
        for request in reversed(front):
            self._owner_queue(request).appendleft(request)
        while pending:
            request = pending.popleft()
            self._owner_queue(request).append(request)

    def pump(self) -> int:
        """Dispatch queued requests into open windows; returns count.

        Called on every scheduler switch of every node (via
        :meth:`drive`'s ``until``).  Until one of these events, every
        queued request stays parked (its owner is dead or missing, or
        its node's window is full), so ``pump`` returns 0 without one:

        - a request is enqueued or re-enqueued (``set``/``get``/
          ``delete``, a MOVED chase, an :meth:`abort_node` replay);
        - a window opens (a reply, or :meth:`abort_node` dropping a
          node's queue);
        - the routing token ``(cluster.epoch, map.epoch)`` changes,
          which every kill, promotion and shard join does.

        After one, ``pump`` routes the requests it has not seen (and
        every queued one again if the map moved), then takes, from each
        queue whose shard is there and whose serving node is alive, as
        many heads as that node's window has room for, and delivers them
        in position order.  So every delivery happens at the same call,
        to the same node, in the same global order as a scan of one FIFO
        of every undispatched request on every call would make it.
        """
        cluster = self.cluster
        parked = self._parked_at
        if (
            parked is not None
            and parked[0] == cluster.epoch
            and parked[1] == cluster.map.epoch
        ):
            return 0
        self._parked_at = (cluster.epoch, cluster.map.epoch)
        self._route()
        ready = []
        shards = cluster.shards
        outstanding = self.outstanding
        for name, queue in self._queues.items():
            shard = shards.get(name)
            if not queue or shard is None or not shard.serving.alive:
                continue  # owner missing or dead (mid-failover): it waits
            node = shard.serving
            sent = outstanding.get(node.name)
            if sent is None:
                sent = outstanding[node.name] = collections.deque()
            for _ in range(min(self.window - len(sent), len(queue))):
                ready.append((queue.popleft(), node, sent))
        ready.sort(key=lambda entry: entry[0].position)
        for request, node, sent in ready:
            request.attempts += 1
            sent.append(request)
            node.deliver(request.payload)
        return len(ready)

    def drive(self, max_rounds: int = 200_000) -> None:
        """Pump until every issued request completed."""

        def advanced() -> bool:
            self.pump()
            # ``done``, inlined: this runs on every scheduler round.
            return self.completed >= self.issued

        self.cluster.fabric.run(until=advanced, max_rounds=max_rounds)

    def rebind(self) -> None:
        """Topology changed (failover/rebalance): re-register sinks."""
        for shard in self.cluster.shards.values():
            if shard.serving.alive:
                shard.serving.client_sink = self.on_reply

    # --- reply path -------------------------------------------------------

    def on_reply(self, node_name: str, payload: bytes) -> None:
        parser = self._parsers.get(node_name)
        if parser is None:
            parser = self._parsers[node_name] = resp.ReplyParser()
        for reply in parser.feed(payload):
            queue = self.outstanding.get(node_name)
            if not queue:
                # Reply for a request we already aborted elsewhere
                # (duplicate ack after a retry) — drop it.
                continue
            request = queue.popleft()
            self._parked_at = None  # the window has room again
            self._complete(request, reply)

    def _complete(self, request: Request, reply) -> None:
        if isinstance(reply, resp.ErrorReply):
            text = reply.message
            if text.startswith(b"MOVED "):
                # -MOVED <slot> <owner>: chase the redirect.
                parts = text.split()
                self.moved += 1
                request.forced_shard = (
                    parts[2].decode() if len(parts) >= 3 else None
                )
                self._requeue((request,))
                return
            self.errors += 1
            self.completed += 1
            return
        if request.op == "set":
            if reply == b"OK":
                self.acked[request.key] = request.value
            else:
                self.errors += 1
        elif request.op == "del":
            self.acked.pop(request.key, None)
        elif request.op == "get":
            expected = self.acked.get(request.key)
            if expected is not None and reply != expected:
                self.stale_reads += 1
                self.stale_keys.append(request.key)
        self.completed += 1

    # --- failure handling -------------------------------------------------

    def abort_node(self, node_name: str) -> int:
        """A node died: retry its outstanding requests elsewhere.

        At-least-once semantics — a request the dead node processed but
        never answered is replayed against the new owner.  ``SET`` and
        ``DEL`` are idempotent per key so replays converge; an already
        recorded ack is never rolled back.  Replays go to the front of
        the FIFO in issue order, so a later write to a key is never
        replayed before an earlier one.
        """
        queue = self.outstanding.pop(node_name, None)
        self._parsers.pop(node_name, None)
        self._parked_at = None
        if not queue:
            return 0
        for request in queue:
            request.forced_shard = None  # re-route via the new map
        self.retried += len(queue)
        self._requeue(queue)
        return len(queue)

    # --- reporting --------------------------------------------------------

    def stats(self) -> dict:
        return {
            "issued": self.issued,
            "completed": self.completed,
            "acked": len(self.acked),
            "moved": self.moved,
            "retried": self.retried,
            "errors": self.errors,
            "stale_reads": self.stale_reads,
        }


def verify_acked(cluster, client: ClusterClient) -> dict:
    """Read back every acked key through the cluster; returns the audit.

    Drives real GET traffic (following MOVED redirects) and compares
    each reply against the client's acked ground truth.  Any mismatch
    or miss is an acked-write violation.
    """
    probe = ClusterClient(cluster, window=client.window)
    probe.acked = dict(client.acked)
    lost: list[str] = []
    wrong: list[str] = []
    for key in sorted(client.acked):
        probe.get(key)
    probe.drive()
    # probe.stale_reads counts mismatches; distinguish miss vs corrupt
    # by re-reading values host-side from the owning shard.
    for key in sorted(client.acked):
        owner = cluster.map.owner(key)
        node = cluster.serving_node(owner)
        value = node.image.lib("redis").value_of(key)
        if value is None:
            lost.append(key.decode(errors="replace"))
        elif value != client.acked[key]:
            wrong.append(key.decode(errors="replace"))
    return {
        "checked": len(client.acked),
        "lost": lost,
        "wrong": wrong,
        "wire_mismatches": probe.stale_reads,
        "moved_followed": probe.moved,
        "ok": not lost and not wrong and probe.stale_reads == 0,
    }
