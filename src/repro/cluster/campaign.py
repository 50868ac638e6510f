"""Cluster failure cells: seeded crashes with cluster-level verdicts.

The single-machine recovery campaign asks "did the journal survive the
power cut?".  The cluster campaign asks the distributed version:
**does an acked write survive losing the machine that acked it?**
Each cell drives seeded RESP load through the smart client (which
records the acked ground truth), injects one cluster-level failure,
lets the cluster fail over / rebalance, and audits every acked key
through real wire reads plus host-side store inspection.  This module
holds the cell function and the site table; the campaign engine
(:mod:`repro.resilience.campaign`, ``--kind cluster``) sweeps the
cells and keeps the matrix.

Sites
    ``primary-kill``
        Harness powers off one shard's primary mid-load (seeded kill
        point); the follower is promoted with journal replay.
    ``repl-crash-primary``
        The fault injector cuts the primary's power *between* the
        replication doorbell and its reply — the follower holds a
        record the client never saw acked.  Failover must neither
        lose an acked write nor miscount the unacked one.
    ``repl-drop``
        The injector drops replication doorbells in flight; the
        channel's vm-rpc-style retry discipline must absorb them with
        no acked loss.
    ``stale-read``
        The follower is promoted *without* journal replay, the client
        observes the stale-read window, then replay closes it.
    ``shard-join``
        A shard joins mid-life; moved slots migrate over the wire and
        a deliberately stale client must converge via MOVED chasing.

Verdicts (worst kept per site × backend across schedules)
    ``not-triggered`` < ``rebalance-converged`` =
    ``no-acked-write-lost`` < ``stale-read-window`` <
    ``acked-write-lost``.

Every cell is a pure function of (backend, site, seed): same inputs,
bit-identical verdicts.
"""

from __future__ import annotations

import dataclasses
import random

from repro.cluster.client import ClusterClient, verify_acked
from repro.cluster.cluster import RedisCluster
from repro.machine.faults import PowerFailure
from repro.resilience.injector import arm
from repro.resilience.plan import InjectionPlan

DEFAULT_SHARDS = ("s0", "s1", "s2")

#: The sites, in campaign order, and the verdict each must earn for a
#: ``--check`` to pass.
EXPECTED = {
    "primary-kill": "no-acked-write-lost",
    "repl-crash-primary": "no-acked-write-lost",
    "repl-drop": "no-acked-write-lost",
    "stale-read": "stale-read-window",
    "shard-join": "rebalance-converged",
}


def _seeded_load(client: ClusterClient, seed: int, sets: int) -> list[bytes]:
    """Issue ``sets`` seeded SETs (keys spread across all shards);
    returns their keys."""
    rng = random.Random(seed)
    keys = []
    for index in range(sets):
        key = b"key:%03d" % index
        value = b"v%03d-%08x" % (index, rng.getrandbits(32))
        client.set(key, value)
        keys.append(key)
    return keys


def _victim_shard(cluster: RedisCluster, seed: int) -> str:
    shards = sorted(cluster.shards)
    return shards[seed % len(shards)]


def _nth_doorbell(cluster, client, keys: list[bytes], victim: str, seed: int) -> int:
    """A seeded replication doorbell the victim's primary is sure to
    ring: one rings per commit group, and a group holds at most the
    client's per-node window of the victim's SETs."""
    records = sum(1 for key in keys if cluster.map.owner(key) == victim)
    return 1 + seed % max(1, -(-records // client.window))


def _audit_verdict(cluster, client, triggered: bool) -> tuple[str, dict]:
    if not triggered:
        return "not-triggered", {"checked": 0, "ok": True}
    audit = verify_acked(cluster, client)
    return (
        "no-acked-write-lost" if audit["ok"] else "acked-write-lost"
    ), audit


def run_cluster_cell(
    backend: str,
    site: str,
    seed: int,
    sets: int = 24,
    shards=DEFAULT_SHARDS,
) -> dict:
    """One (backend × site × seed) cluster failure cell."""
    cluster = RedisCluster(shards=shards, backend=backend, replicate=True)
    client = ClusterClient(cluster)
    keys = _seeded_load(client, seed, sets)
    victim = _victim_shard(cluster, seed)
    primary = cluster.shards[victim].primary
    injector = None
    extra: dict = {}

    if site == "primary-kill":
        threshold = max(1, sets // 3 + seed % 5)

        def until_kill_point() -> bool:
            client.pump()
            return len(client.acked) >= threshold or client.done

        cluster.fabric.run(until=until_kill_point)
        cluster.kill_primary(victim)
        extra["recover_report"] = cluster.promote(victim, recover=True)
        client.drive()
        verdict, audit = _audit_verdict(cluster, client, triggered=True)

    elif site == "repl-crash-primary":
        nth = _nth_doorbell(cluster, client, keys, victim, seed)
        plan = InjectionPlan(seed).crash_repl_primary(nth=nth)
        injector = arm(primary.image, plan)
        try:
            client.drive()
            triggered = False
        except PowerFailure:
            triggered = True
            died = cluster.fabric.current
            assert died is not None and died.name == primary.name
            cluster.kill_primary(victim)
            extra["recover_report"] = cluster.promote(victim, recover=True)
            client.drive()
        verdict, audit = _audit_verdict(cluster, client, triggered)

    elif site == "repl-drop":
        # count stays within the channel's retry budget: the doorbell
        # is lost, backed off, and redelivered — never surfaced.
        nth = _nth_doorbell(cluster, client, keys, victim, seed)
        plan = InjectionPlan(seed).drop_repl_op(nth=nth, count=2)
        injector = arm(primary.image, plan)
        client.drive()
        triggered = injector.fired > 0
        verdict, audit = _audit_verdict(cluster, client, triggered)
        extra["repl_retries"] = cluster.shards[victim].channel.retries

    elif site == "stale-read":
        client.drive()
        owned = [
            key for key in sorted(client.acked)
            if cluster.map.owner(key) == victim
        ]
        cluster.kill_primary(victim)
        # Promote WITHOUT replay: the stale-read window is open.
        cluster.promote(victim, recover=False)
        for key in owned:
            client.get(key)
        client.drive()
        window = client.stale_reads
        extra["stale_window_reads"] = window
        extra["recover_report"] = cluster.recover_follower(victim)
        # Reload the serving store from the replayed journal and
        # audit: the window must be closed.
        verdict, audit = _audit_verdict(
            cluster, client, triggered=bool(owned)
        )
        if verdict == "no-acked-write-lost":
            verdict = "stale-read-window" if window else "not-triggered"

    elif site == "shard-join":
        client.drive()
        before_map = {
            key: cluster.map.owner(key) for key in client.acked
        }
        report = cluster.add_shard("s%d" % len(shards))
        extra["rebalance"] = report
        # A deliberately stale client: aim moved keys at their OLD
        # owner and require MOVED chasing to converge.
        moved_keys = [
            key for key, old in sorted(before_map.items())
            if cluster.map.owner(key) != old
        ]
        for key in moved_keys:
            client.get(key)
            client.pending[-1].forced_shard = before_map[key]
        client.drive()
        extra["moved_followed"] = client.moved
        verdict, audit = _audit_verdict(cluster, client, triggered=True)
        if verdict == "no-acked-write-lost":
            converged = not moved_keys or client.moved > 0
            verdict = "rebalance-converged" if converged else "acked-write-lost"

    else:
        raise ValueError(f"unknown cluster site {site!r}")

    cell = {
        "backend": backend,
        "site": site,
        "seed": seed,
        "verdict": verdict,
        "acked": len(client.acked),
        "client": client.stats(),
        "audit": audit,
        "shards": cluster.shard_report(),
        "replication_lag": cluster.replication_lag(),
        "victim": victim,
        "injected": injector.fired if injector is not None else 0,
    }
    if injector is not None:
        cell["events"] = [
            dataclasses.asdict(event) for event in injector.events
        ]
        injector.detach()
    cell.update(extra)
    for shard in cluster.shards.values():
        shard.primary.image.shutdown()
        if shard.follower is not None:
            shard.follower.image.shutdown()
    return cell
