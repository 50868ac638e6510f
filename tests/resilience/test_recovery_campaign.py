"""Recovery campaigns: crash → reboot → recover, verdict matrix."""

import json

import pytest

from repro.resilience import (
    KINDS,
    CampaignResult,
    default_recovery_plan,
    run_campaign,
    run_recovery_cell,
)
from repro.resilience.campaign import main

RECOVERY_SITES = KINDS["recovery"].sites


def test_default_recovery_plans_cover_every_site():
    for site in RECOVERY_SITES:
        plan = default_recovery_plan(site, seed=3)
        assert plan.specs, site
    with pytest.raises(ValueError):
        default_recovery_plan("disk-on-fire", seed=3)


@pytest.mark.parametrize("site", RECOVERY_SITES)
def test_each_site_ends_in_recovered_state(site):
    """The acceptance property: every acknowledged write survives the
    crash, and no torn record ever surfaces."""
    cell = run_recovery_cell(
        "none", site, default_recovery_plan(site, seed=5), sets=12
    )
    assert cell["verdict"] == "recovered-state"
    assert cell["injected"] >= 1
    assert cell["lost_keys"] == [] and cell["torn_keys"] == []
    assert cell["restored"] >= cell["acked"]
    assert cell["generations"] >= 1  # at least one power cycle happened


@pytest.mark.parametrize("site", RECOVERY_SITES)
def test_each_site_recovers_merged_records_across_sectors(site):
    """At 120 SETs the cell's compaction packs records across sector
    boundaries; recovery still brings every acknowledged write back."""
    cell = run_recovery_cell(
        "none", site, default_recovery_plan(site, seed=5), sets=120
    )
    assert cell["verdict"] == "recovered-state"
    assert cell["lost_keys"] == [] and cell["torn_keys"] == []


def test_recovery_works_behind_real_gates():
    cell = run_recovery_cell(
        "mpk-shared",
        "blk-torn-write",
        default_recovery_plan("blk-torn-write", seed=5),
        sets=12,
    )
    assert cell["verdict"] == "recovered-state"


def test_same_seed_same_recovery_matrix():
    def run():
        result = run_campaign(
            "recovery",
            backends=("none", "mpk-shared"),
            sites=("blk-torn-write", "crash-mid-compaction"),
            schedules=2,
            seed=11,
            sets=10,
        )
        return result.matrix(), [
            (
                cell["verdict"],
                cell["acked"],
                cell["restored"],
                cell["injected"],
                cell["generations"],
            )
            for cell in result.cells
        ]

    assert run() == run()


def test_matrix_keeps_worst_verdict():
    def cell(backend, verdict):
        return {"site": "blk-torn-write", "backend": backend,
                "verdict": verdict}

    result = CampaignResult(
        kind="recovery",
        seed=0,
        schedules=3,
        cells=[
            cell("none", "recovered-state"),
            cell("none", "lost-acked-write"),
            cell("none", "not-triggered"),
            cell("mpk-shared", "torn-surfaced"),
            cell("mpk-shared", "recovered-state"),
        ],
    )
    row = result.matrix()["blk-torn-write"]
    assert row["none"] == "lost-acked-write"
    assert row["mpk-shared"] == "torn-surfaced"
    # The check reads the worst verdict; the rate reads every
    # triggered cell.
    assert len(result.failures(["blk-torn-write"])) == 2
    assert result.containment_rate("none") == 0.5


def test_recovery_cell_payload_is_json_ready():
    cell = run_recovery_cell(
        "none",
        "crash-mid-compaction",
        default_recovery_plan("crash-mid-compaction", seed=1),
        sets=8,
    )
    json.dumps(cell)  # must not raise
    for key in ("site", "backend", "seed", "verdict", "acked", "restored",
                "injected", "events", "generations",
                "torn_records_discarded"):
        assert key in cell


def test_cli_check_recovered(capsys, tmp_path):
    out = tmp_path / "recovery.json"
    code = main([
        "--kind", "recovery",
        "--backends", "none",
        "--sites", "blk-torn-write",
        "--schedules", "1",
        "--seed", "5",
        "--sets", "12",
        "--check", "blk-torn-write",
        "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["matrix"]["blk-torn-write"]["none"] == "recovered-state"
    assert "blk-torn-write" in capsys.readouterr().out
