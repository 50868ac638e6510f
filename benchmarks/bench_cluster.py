"""Cluster benchmark: shard scaling, failover time, rebalance cost.

Three phases over the sharded redis cluster
(:mod:`repro.cluster`), all on simulated clocks:

- **scaling**: the same seeded SET/GET mix against 1, 2 and 3 durable
  shards; cluster throughput is total completed operations divided by
  the busiest machine's clock advance (machines run concurrently, so
  the slowest shard is the wall).  Acceptance: >= 1.7x aggregate
  SET/GET throughput going from 1 shard to 3.
- **failover**: a replicated cluster loses one primary mid-load; the
  follower is promoted with journal replay.  Reported: failover time
  (power-off to serving-ready on the follower's clock), replication
  lag, and the audit proving no acked write was lost.
- **rebalance**: a fourth shard joins a loaded three-shard cluster;
  reported: slots moved, keys/bytes migrated over the wire, and the
  migration's simulated duration.

Every phase is recorded under ``cluster`` in ``benchmarks/results.json``.
"""

from __future__ import annotations

from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster

SHARD_COUNTS = (1, 2, 3)
#: Acceptance floor for aggregate throughput scaling 1 -> 3 shards.
MIN_SCALING = 1.7
SETS = 240
GETS = 240
BACKEND = "none"
#: Picks the failover victim among the sorted shard names.
FAILOVER_SEED = 11


def _clock(cluster: RedisCluster) -> float:
    return max(node.clock_ns for node in cluster.fabric.alive_nodes())


def scaling_cell(shards: int) -> dict:
    """Aggregate SET/GET throughput at a given shard count."""
    names = tuple("s%d" % index for index in range(shards))
    cluster = RedisCluster(shards=names, backend=BACKEND, replicate=False)
    client = ClusterClient(cluster)
    start = _clock(cluster)
    for index in range(SETS):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    client.drive()
    for index in range(GETS):
        client.get(b"key:%04d" % (index % SETS))
    client.drive()
    elapsed = _clock(cluster) - start
    ops = client.completed
    assert client.stats()["errors"] == 0
    return {
        "shards": shards,
        "ops": ops,
        "acked_sets": len(client.acked),
        "elapsed_ns": elapsed,
        "throughput_ops_per_ms": ops / (elapsed / 1e6),
    }


def failover_cell() -> dict:
    """Kill one primary mid-load; measure promotion on the follower."""
    cluster = RedisCluster(
        shards=("s0", "s1", "s2"), backend=BACKEND, replicate=True
    )
    client = ClusterClient(cluster)
    for index in range(SETS):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    threshold = max(1, SETS // 2)

    def mid_load() -> bool:
        client.pump()
        return len(client.acked) >= threshold or client.done

    cluster.fabric.run(until=mid_load)
    victim = sorted(cluster.shards)[FAILOVER_SEED % len(cluster.shards)]
    cluster.kill_primary(victim)
    report = cluster.promote(victim, recover=True)
    client.drive()
    audit = verify_acked(cluster, client)
    shard = cluster.shards[victim]
    return {
        "victim": victim,
        "acked": len(client.acked),
        "failover_ns": shard.failover_ns,
        "restored": report.get("restored", 0),
        "retried_requests": client.retried,
        "replication_lag": cluster.replication_lag(),
        "no_acked_write_lost": audit["ok"],
    }


def rebalance_cell() -> dict:
    """Join a fourth shard into a loaded cluster; cost of convergence."""
    cluster = RedisCluster(
        shards=("s0", "s1", "s2"), backend=BACKEND, replicate=False
    )
    client = ClusterClient(cluster)
    for index in range(SETS):
        client.set(b"key:%04d" % index, b"v%04d" % index * 8)
    client.drive()
    report = cluster.add_shard("s3")
    audit = verify_acked(cluster, client)
    return {
        "keys_before": len(client.acked),
        "moved_slots": len(report["moved_slots"]),
        "migrated_keys": report["migrated_keys"],
        "migrated_bytes": report["migrated_bytes"],
        "migration_ns": report["migration_ns"],
        "converged": audit["ok"],
    }


def test_cluster_scaling(report):
    """>= 1.7x aggregate throughput from 1 to 3 shards, no op lost."""
    scaling = [scaling_cell(count) for count in SHARD_COUNTS]
    ratio = (
        scaling[-1]["throughput_ops_per_ms"]
        / scaling[0]["throughput_ops_per_ms"]
    )
    for cell in scaling:
        report.row(
            "Cluster (simulated)",
            f"shards={cell['shards']}  "
            f"{cell['throughput_ops_per_ms']:8.1f} ops/ms  "
            f"({cell['ops']} ops in {cell['elapsed_ns'] / 1e6:.2f} ms)",
        )
    report.row("Cluster (simulated)", f"scaling 1->3: {ratio:.2f}x")
    report.value("cluster", "scaling", scaling)
    report.value("cluster", "scaling_1_to_3", ratio)
    assert ratio >= MIN_SCALING, ratio
    # More shards never lose operations.
    for cell in scaling:
        assert cell["ops"] == SETS + GETS


def test_cluster_failover(report):
    """A killed primary's follower takes over without losing acked writes."""
    failover = failover_cell()
    report.row(
        "Cluster (simulated)",
        f"failover: {failover['failover_ns'] / 1e6:.2f} ms "
        f"(victim {failover['victim']}, acked {failover['acked']}, "
        f"no-acked-write-lost={failover['no_acked_write_lost']})",
    )
    report.value("cluster", "failover", failover)
    assert failover["no_acked_write_lost"]
    assert failover["failover_ns"] > 0


def test_cluster_rebalance(report):
    """A fourth shard joins a loaded cluster and the key space converges."""
    rebalance = rebalance_cell()
    report.row(
        "Cluster (simulated)",
        f"rebalance: {rebalance['migrated_keys']} keys / "
        f"{rebalance['migrated_bytes']} bytes in "
        f"{rebalance['migration_ns'] / 1e6:.2f} ms "
        f"(moved {rebalance['moved_slots']} slots)",
    )
    report.value("cluster", "rebalance", rebalance)
    assert rebalance["converged"]
    assert rebalance["migrated_keys"] >= 0
