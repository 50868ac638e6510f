"""Event-driven client dispatch: a parked backlog is only rescanned
after an event that can unpark it, and skipping the other rescans
changes no simulated result."""

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import RedisCluster
from repro.cluster.fabric import Node
from repro.cluster.shardmap import ShardMap
from tests.golden.worlds import run_cluster_load


class RescanEveryCall(ClusterClient):
    """Reference client: a full FIFO scan on every ``pump`` call."""

    def pump(self) -> int:
        self._parked_at = None
        return super().pump()


def _keys_owned_by(cluster, shard, count):
    keys = (b"key:%03d" % index for index in range(1000))
    return [key for key in keys if cluster.map.owner(key) == shard][:count]


class _Probe:
    """Counts the ``ShardMap.owner`` calls one ``pump`` makes."""

    def __init__(self, cluster, client):
        self.client = client
        self.calls = 0
        owner = cluster.map.owner

        def counted(key):
            self.calls += 1
            return owner(key)

        cluster.map.owner = counted

    def pump(self):
        """(dispatched, owner calls, owner calls a full scan makes)."""
        routed = sum(1 for r in self.client.pending if r.forced_shard is None)
        self.calls = 0
        dispatched = self.client.pump()
        return dispatched, self.calls, routed

    def assert_one_rescan(self):
        """The next pump rescans the whole FIFO; the one after is free."""
        dispatched, calls, routed = self.pump()
        assert routed > 0 and calls == routed
        parked = list(self.client.pending)
        assert self.pump()[:2] == (0, 0)
        assert list(self.client.pending) == parked
        return dispatched


def test_parked_backlog_is_rescanned_once_per_event():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False, durable=False)
    client = ClusterClient(cluster, window=1)
    probe = _Probe(cluster, client)
    keys = _keys_owned_by(cluster, "s0", 5)
    for key in keys[:3]:
        client.set(key, b"x")
    assert probe.pump() == (1, 3, 3)  # one fills s0's window, two park
    assert probe.pump()[:2] == (0, 0)  # nothing changed: no routing at all
    assert probe.pump()[:2] == (0, 0)

    client.set(keys[3], b"y")  # enqueue
    assert probe.assert_one_rescan() == 0

    cluster.fabric.run(until=lambda: client.completed == 1)  # reply
    assert probe.assert_one_rescan() == 1

    # MOVED: a GET aimed at the wrong shard comes back redirected.
    client.get(keys[4])
    client.pending[-1].forced_shard = "s1"
    assert probe.assert_one_rescan() == 1  # the enqueue; s1 takes it
    cluster.fabric.run(until=lambda: client.moved == 1)
    assert client.pending[0].forced_shard == "s0"
    probe.assert_one_rescan()

    client.abort_node("s1-a")  # drops s1's (empty) queue
    probe.assert_one_rescan()
    cluster.epoch += 1  # routing token
    probe.assert_one_rescan()
    cluster.map.add("s2")
    probe.assert_one_rescan()


def _run_scenario(client_cls, seed):
    """The golden corpus's seeded cluster load, with every delivery and
    every routing call recorded."""
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
        cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=True)
        client = client_cls(cluster)
        run_cluster_load(cluster, client, seed)
        snapshots = [image.machine.cpu.snapshot() for image in cluster.images()]
    return {
        "deliveries": deliveries,
        "snapshots": snapshots,
        "stats": client.stats(),
        "acked": client.acked,
        "owner_calls": owner_calls[0],
    }


@pytest.mark.parametrize("seed", (3, 11))
def test_event_driven_pump_matches_rescan_every_call(seed):
    event = _run_scenario(ClusterClient, seed)
    reference = _run_scenario(RescanEveryCall, seed)
    stats = event["stats"]
    # The scenario reaches every invalidating event.
    assert stats["moved"] > 0 and stats["retried"] > 0
    assert stats["completed"] == stats["issued"] == 101
    assert stats["errors"] == 0
    for field in ("deliveries", "snapshots", "stats", "acked"):
        assert event[field] == reference[field], field
    assert event["owner_calls"] < reference["owner_calls"]
