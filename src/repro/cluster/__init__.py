"""Sharded, replicated redis cluster on a multi-machine fabric.

- :mod:`repro.cluster.shardmap` — consistent-hash slots and rebalance
  diffs;
- :mod:`repro.cluster.fabric` — inter-machine links and conservative
  multi-clock stepping;
- :mod:`repro.cluster.replication` — primary→follower journal
  streaming with vm-rpc doorbell discipline;
- :mod:`repro.cluster.cluster` — the control plane (routing, fencing,
  failover, rebalancing);
- :mod:`repro.cluster.client` — the smart client and acked-write
  ground truth;
- :mod:`repro.cluster.campaign` — seeded failure cells with
  cluster-level verdicts (the campaign engine's ``cluster`` kind).
"""

from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster, select_shard_profile
from repro.cluster.fabric import Fabric, Link, Node
from repro.cluster.replication import ReplicaChannel, ReplicationTimeout
from repro.cluster.shardmap import NSLOTS, ShardMap, slot_of

__all__ = [
    "NSLOTS",
    "ClusterClient",
    "Fabric",
    "Link",
    "Node",
    "RedisCluster",
    "ReplicaChannel",
    "ReplicationTimeout",
    "ShardMap",
    "select_shard_profile",
    "slot_of",
    "verify_acked",
]
