"""A reference smart client for the dispatch tests.

:class:`FifoScanClient` is the definition the per-owner dispatch of
:class:`~repro.cluster.client.ClusterClient` must match: every request
that is not dispatched yet waits in one FIFO, issues at the back and
re-enqueues (MOVED chases, abort replays) at the front, and every
``pump`` scans that FIFO whole, routing each request through the
current shard map and dispatching it if its node's window has room.
"""

from __future__ import annotations

import collections

from repro.cluster.client import ClusterClient


class FifoScanClient(ClusterClient):
    """A :class:`ClusterClient` that rescans its whole backlog per pump."""

    def _requeue(self, requests) -> None:
        self.pending.extendleft(reversed(requests))

    def pump(self) -> int:
        cluster = self.cluster
        dispatched = 0
        blocked = []
        while self.pending:
            request = self.pending.popleft()
            shard = request.forced_shard or cluster.map.owner(request.key)
            node = cluster.serving_node(shard) if shard in cluster.shards else None
            if node is None or not node.alive:
                blocked.append(request)  # owner dead or missing: parked
                continue
            queue = self.outstanding.setdefault(node.name, collections.deque())
            if len(queue) >= self.window:
                blocked.append(request)
                continue
            request.attempts += 1
            queue.append(request)
            node.deliver(request.payload)
            dispatched += 1
        self.pending.extend(blocked)
        return dispatched
