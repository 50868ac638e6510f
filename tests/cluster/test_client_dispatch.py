"""Per-owner client dispatch: ``pump`` routes each request once (again
only when the shard map moves), looks only at windows, and delivers
exactly what a scan of one FIFO of the whole backlog would deliver, in
the same order."""

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.cluster.fabric import Node
from repro.cluster.shardmap import ShardMap
from tests.cluster.reference import FifoScanClient
from tests.golden.worlds import run_cluster_load

_KEYS = [b"key:%03d" % index for index in range(1000)]


def _keys_owned_by(shard_map, shard, count):
    return [key for key in _KEYS if shard_map.owner(key) == shard][:count]


class _Probe:
    """Counts the ``ShardMap.owner`` calls that ``client.pump`` makes."""

    def __init__(self, cluster, client):
        self.client = client
        self.calls = 0
        self.routed = 0
        owner = cluster.map.owner
        pump = client.pump

        def counted(key):
            self.calls += 1
            return owner(key)

        def counted_pump():
            before = self.calls
            dispatched = pump()
            self.routed += self.calls - before
            return dispatched

        cluster.map.owner = counted
        client.pump = counted_pump

    def pump(self):
        """(dispatched, routing calls) of one pump."""
        before = self.routed
        dispatched = self.client.pump()
        return dispatched, self.routed - before


def test_pump_routes_new_requests_once_and_fills_only_opened_windows():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False, durable=False)
    client = ClusterClient(cluster, window=1)
    probe = _Probe(cluster, client)
    keys = _keys_owned_by(cluster.map, "s0", 6)
    for key in keys[:4]:
        client.set(key, b"x")
    assert probe.pump() == (1, 4)  # routes all four; s0's window takes one
    assert probe.pump() == (0, 0)  # nothing changed: no routing at all

    client.set(keys[4], b"y")
    assert probe.pump() == (0, 1)  # an enqueue routes only the new request
    assert probe.pump() == (0, 0)

    # A reply opens s0's slot: nothing is routed, one request goes out.
    cluster.fabric.run(until=lambda: client.completed == 1)
    assert probe.pump() == (1, 0)
    assert probe.pump() == (0, 0)

    # A MOVED chase follows its redirect to the front of s0's queue.
    client.get(keys[5])
    client.pending[-1].forced_shard = "s1"
    assert probe.pump() == (1, 0)  # s1's window takes it
    cluster.fabric.run(until=lambda: client.moved == 1)
    assert client.pending[0].forced_shard == "s0"
    assert probe.pump() == (0, 0)  # s0's window is still full
    cluster.fabric.run(until=lambda: client.completed == 2)
    assert probe.pump() == (1, 0)
    assert client.outstanding["s0-a"][0].key == keys[5]

    cluster.epoch += 1  # routing token: no routing, no window open
    assert probe.pump() == (0, 0)

    # A map change re-routes each queued request once.
    queued = sum(len(queue) for queue in client._queues.values())
    assert queued == 3
    cluster.map.add("s2")
    assert probe.pump()[1] == queued
    assert probe.pump() == (0, 0)


def test_bulk_load_routes_each_request_once():
    """A deep backlog, enqueued up front: O(N) routing, where a rescan
    of the backlog per opened window is O(N^2 / window)."""
    cluster = RedisCluster(replicate=False, durable=False)
    client = ClusterClient(cluster)
    probe = _Probe(cluster, client)
    for index in range(1200):
        key = _KEYS[index % len(_KEYS)]
        if index % 2:
            client.get(key)
        else:
            client.set(key, b"v%04d" % index)
    client.drive()
    assert client.completed == client.issued == 1200
    assert client.errors == client.stale_reads == 0
    assert probe.routed == 1200


def _recorded(run):
    """Run ``run()`` with every delivery and every routing call recorded."""
    deliveries = []
    owner_calls = [0]
    deliver = Node.deliver
    owner = ShardMap.owner

    def recorded_deliver(node, payload, sent_at_ns=None):
        deliveries.append((node.name, payload, node.clock_ns))
        return deliver(node, payload, sent_at_ns)

    def counted_owner(shard_map, key):
        owner_calls[0] += 1
        return owner(shard_map, key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Node, "deliver", recorded_deliver)
        patch.setattr(ShardMap, "owner", counted_owner)
        cluster, client = run()
        snapshots = [image.machine.cpu.snapshot() for image in cluster.images()]
    return {
        "deliveries": deliveries,
        "snapshots": snapshots,
        "stats": client.stats(),
        "acked": client.acked,
        "owner_calls": owner_calls[0],
    }


def _corpus_load(client_cls, seed):
    """The golden corpus's seeded cluster load: a stale route, a
    primary kill and promotion and a shard join, all mid-load."""

    def run():
        cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=True)
        client = client_cls(cluster)
        run_cluster_load(cluster, client, seed)
        return cluster, client

    return _recorded(run)


@pytest.mark.parametrize("seed", (3, 11))
def test_event_driven_pump_matches_rescan_every_call(seed):
    ours = _corpus_load(ClusterClient, seed)
    reference = _corpus_load(FifoScanClient, seed)
    stats = ours["stats"]
    # The load reaches every re-enqueueing event.
    assert stats["moved"] > 0 and stats["retried"] > 0
    assert stats["completed"] == stats["issued"] == 101
    assert stats["errors"] == 0
    for field in ("deliveries", "snapshots", "stats", "acked"):
        assert ours[field] == reference[field], field
    assert ours["owner_calls"] < reference["owner_calls"]


def _join(client_cls):
    """Queued SETs on s0 and s1, interleaved in FIFO order, that a join
    moves to s2; the two SETs in flight come back MOVED to s2 after the
    join and before the client's next pump (as replies that arrive
    during a long migration run do).  Window 1, so s2 takes them one
    at a time, in the order the client queued them."""
    state = {}

    def run():
        cluster = RedisCluster(shards=("s0", "s1"), replicate=False, durable=False)
        joined = ShardMap(("s0", "s1", "s2"))
        movers = [
            [key for key in _keys_owned_by(cluster.map, shard, 200)
             if joined.owner(key) == "s2"][:4]
            for shard in ("s0", "s1")
        ]
        client = client_cls(cluster, window=1)
        order = [key for pair in zip(*movers) for key in pair]
        for key in order:
            client.set(key, b"v-" + key)
        assert client.pump() == 2  # one each in flight, three each queued
        cluster.add_shard("s2")
        cluster.fabric.run(until=lambda: client.moved == 2)
        state["order"] = order
        state["moved_first"] = [request.key for request in client.pending]
        client.drive()
        return cluster, client

    result = _recorded(run)
    result.update(state)
    return result


def test_a_join_reroutes_queued_requests_in_fifo_order():
    ours = _join(ClusterClient)
    reference = _join(FifoScanClient)
    for field in ("deliveries", "snapshots", "stats", "acked"):
        assert ours[field] == reference[field], field
    order = ours["order"]
    # Both chases, then the two old owners' queues merged by position.
    assert sorted(ours["moved_first"]) == sorted(order[:2])
    expected = ours["moved_first"] + order[2:]
    delivered = [
        payload for node, payload, _ in ours["deliveries"] if node == "s2-a"
    ]
    assert [payload.split(b"\r\n")[4] for payload in delivered] == expected
    assert ours["stats"]["moved"] == 2 and ours["stats"]["completed"] == 8
    assert ours["acked"] == {key: b"v-" + key for key in order}
