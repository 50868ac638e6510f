"""Cluster campaign: verdicts, determinism, retry discipline."""

import json

import pytest

from repro.cluster.campaign import EXPECTED, run_cluster_cell
from repro.cluster.cluster import RedisCluster
from repro.cluster.client import ClusterClient
from repro.cluster.replication import MAX_RETRIES
from repro.resilience.campaign import KINDS, CampaignResult, main, run_campaign
from repro.resilience.injector import arm
from repro.resilience.plan import InjectionPlan

SMALL = dict(sets=12, shards=("s0", "s1"))


def test_primary_kill_keeps_every_acked_write():
    cell = run_cluster_cell("none", "primary-kill", seed=3, **SMALL)
    assert cell["verdict"] == "no-acked-write-lost"
    assert cell["acked"] == 12
    assert cell["audit"]["ok"]
    assert cell["audit"]["checked"] == 12


def test_repl_crash_primary_is_injected_and_survives():
    cell = run_cluster_cell("none", "repl-crash-primary", seed=3, **SMALL)
    assert cell["verdict"] == "no-acked-write-lost"
    assert cell["injected"] == 1
    assert cell["events"][0]["site"] == "repl-crash-primary"
    assert cell["events"][0]["outcome"] == "raised"


def test_repl_drop_is_absorbed_by_retries():
    cell = run_cluster_cell("none", "repl-drop", seed=3, **SMALL)
    assert cell["verdict"] == "no-acked-write-lost"
    assert cell["injected"] == 2
    assert cell["repl_retries"] == 2


def test_stale_read_window_observed_then_closed():
    cell = run_cluster_cell("none", "stale-read", seed=3, **SMALL)
    assert cell["verdict"] == "stale-read-window"
    assert cell["stale_window_reads"] > 0
    assert cell["audit"]["ok"]  # closed after journal replay


def test_shard_join_converges_via_moved():
    cell = run_cluster_cell("none", "shard-join", seed=3, **SMALL)
    assert cell["verdict"] == "rebalance-converged"
    assert cell["rebalance"]["migrated_keys"] >= 0
    assert cell["audit"]["ok"]


def test_cells_are_deterministic():
    left = run_cluster_cell("none", "primary-kill", seed=7, **SMALL)
    right = run_cluster_cell("none", "primary-kill", seed=7, **SMALL)
    for field in ("verdict", "acked", "victim", "client", "audit"):
        assert left[field] == right[field]


def test_campaign_matrix_keeps_worst_verdict():
    result = run_campaign(
        "cluster",
        backends=("none",),
        sites=("primary-kill",),
        schedules=2,
        seed=1,
        sets=12,
        shards=("s0", "s1"),
    )
    assert len(result.cells) == 2
    matrix = result.matrix()
    assert matrix["primary-kill"]["none"] == "no-acked-write-lost"
    payload = result.to_dict()
    assert payload["matrix"] == matrix


def test_severity_and_expected_cover_all_verdicts():
    severity = KINDS["cluster"].severity
    assert set(EXPECTED.values()) <= set(severity)
    assert severity["acked-write-lost"] > severity["stale-read-window"]
    assert severity["stale-read-window"] > severity["no-acked-write-lost"]


def test_check_of_a_site_not_run_fails():
    result = CampaignResult(
        kind="cluster",
        seed=0,
        schedules=1,
        cells=[
            {
                "site": "primary-kill",
                "backend": "none",
                "verdict": "no-acked-write-lost",
            }
        ],
    )
    assert result.failures(["primary-kill"]) == []
    assert result.failures(["stale-read"]) == [
        "none at stale-read: verdict None, "
        "expected one of ('stale-read-window',)"
    ]
    assert result.failures(["no-such-site"]) == [
        "none at no-such-site: verdict None, expected one of ()"
    ]


def test_cli_check_cluster(capsys, tmp_path):
    out = tmp_path / "cluster.json"
    code = main([
        "--kind", "cluster",
        "--backends", "none",
        "--sites", "primary-kill,stale-read",
        "--seed", "9",
        "--sets", "12",
        "--shards", "2",
        "--check", "primary-kill",
        "--check", "stale-read",
        "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "cluster"
    assert payload["matrix"] == {
        "primary-kill": {"none": "no-acked-write-lost"},
        "stale-read": {"none": "stale-read-window"},
    }
    assert "stale-read" in capsys.readouterr().out


def test_cli_check_cluster_fails_on_unexpected_verdict(capsys):
    # One SET, and the seed picks the shard that does not own it: the
    # promoted follower serves no acked key, so no stale read can be
    # observed and the site earns ``not-triggered``.
    code = main([
        "--kind", "cluster",
        "--backends", "none",
        "--sites", "stale-read",
        "--seed", "1",
        "--sets", "1",
        "--shards", "2",
        "--check", "stale-read",
    ])
    assert code == 1
    assert "none at stale-read: verdict 'not-triggered'" in (
        capsys.readouterr().err
    )


def test_unknown_site_rejected():
    with pytest.raises(ValueError):
        run_cluster_cell("none", "no-such-site", seed=0)


def test_repl_drop_exhausting_retry_budget_surfaces_timeout():
    from repro.cluster.replication import ReplicationTimeout

    cluster = RedisCluster(shards=("s0",), replicate=True)
    client = ClusterClient(cluster)
    plan = InjectionPlan(0).drop_repl_op(nth=1, count=MAX_RETRIES + 2)
    injector = arm(cluster.shards["s0"].primary.image, plan)
    client.set(b"alpha", b"1")
    with pytest.raises(ReplicationTimeout):
        client.drive()
    injector.detach()
    # The write was never acked, so losing it is not an acked loss.
    assert client.acked == {}


@pytest.mark.parametrize("site", ["repl-crash-primary", "repl-drop"])
@pytest.mark.parametrize(
    "sets, shards, seeds",
    [(24, ("s0", "s1", "s2"), range(6)), (12, ("s0", "s1"), range(4))],
)
def test_replication_sites_trigger_on_every_seed(site, sets, shards, seeds):
    """A doorbell carries a commit group, not one record: the seeded
    doorbell a cell arms must be one its victim's primary rings."""
    for seed in seeds:
        cell = run_cluster_cell("none", site, seed, sets=sets, shards=shards)
        assert cell["verdict"] == "no-acked-write-lost", seed
