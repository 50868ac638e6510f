"""Fabric: link pacing, delivery-time gating, conservative stepping."""

import pytest

from repro.apps.resp import encode_command
from repro.cluster.fabric import Fabric, Link
from repro.cluster.cluster import RedisCluster
from repro.cluster.client import ClusterClient


def test_link_charges_packet_and_byte_costs():
    link = Link(latency_ns=1000.0, byte_ns=1.0, pkt_ns=20.0)
    arrival = link.delay(0.0, 100)
    assert arrival == pytest.approx(20.0 + 100.0 + 1000.0)
    assert link.messages == 1
    assert link.bytes == 100


def test_link_serialises_back_to_back_messages():
    link = Link(latency_ns=0.0, byte_ns=1.0, pkt_ns=10.0)
    first = link.delay(0.0, 10)   # occupies the wire until t=20
    second = link.delay(0.0, 10)  # must queue behind the first
    assert first == pytest.approx(20.0)
    assert second == pytest.approx(40.0)
    # After the wire drains, a later send is not delayed.
    third = link.delay(100.0, 10)
    assert third == pytest.approx(120.0)


def _one_node_cluster():
    cluster = RedisCluster(shards=("s0",), replicate=False, durable=False)
    return cluster, cluster.shards["s0"].primary


def test_delivery_waits_for_arrival_time_on_receiver_clock():
    cluster, node = _one_node_cluster()
    arrival = node.deliver(encode_command(b"PING"))
    assert arrival > node.clock_ns  # in flight, not instantly visible
    assert node._rx_source() is None  # NIC sees an idle wire for now
    replies = []
    node.client_sink = lambda name, payload: replies.append(payload)
    cluster.fabric.run(until=lambda: replies)
    # The node's clock had to advance past the arrival to consume it.
    assert node.clock_ns >= arrival
    assert replies == [b"+PONG\r\n"]


def test_conservative_stepping_runs_min_clock_node_first():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False, durable=False)
    client = ClusterClient(cluster)
    for index in range(12):
        client.set(b"key:%03d" % index, b"x%d" % index)
    client.drive()
    assert client.stats()["acked"] == 12
    clocks = [node.clock_ns for node in cluster.fabric.alive_nodes()]
    # Both machines did work on their own clocks.
    assert all(clock > 0 for clock in clocks)


def test_fabric_run_is_deterministic():
    def run_once():
        cluster = RedisCluster(
            shards=("s0", "s1"), replicate=False, durable=False
        )
        client = ClusterClient(cluster)
        for index in range(10):
            client.set(b"key:%03d" % index, b"v%d" % index)
        client.drive()
        return [node.clock_ns for node in cluster.fabric.alive_nodes()]

    assert run_once() == run_once()


def test_kill_stops_scheduling_and_fabric_clock_tracks_alive_nodes():
    cluster = RedisCluster(shards=("s0", "s1"), replicate=False, durable=False)
    node = cluster.fabric.node("s0-a")
    cluster.fabric.kill("s0-a")
    assert not node.alive
    assert node not in cluster.fabric.alive_nodes()
    assert cluster.fabric.clock_ns == cluster.fabric.node("s1-a").clock_ns


def test_fabric_run_raises_when_condition_never_holds():
    cluster, _ = _one_node_cluster()
    with pytest.raises(RuntimeError):
        cluster.fabric.run(until=lambda: False, max_rounds=5)
