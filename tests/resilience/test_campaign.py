"""Campaign engine: matrix shape, determinism, containment claims."""

import json

import pytest

from repro.resilience import run_campaign
from repro.resilience.campaign import default_plan, main, run_cell

#: Kind -> a small campaign of it, as engine options and as CLI flags.
SMALL_CAMPAIGNS = {
    "containment": (
        {"backends": ("none", "vm-rpc"), "sites": ("wild-write", "vm-drop")},
        ["--backends", "none,vm-rpc", "--sites", "wild-write,vm-drop"],
    ),
    "recovery": (
        {"backends": ("none",), "sites": ("blk-torn-write",), "sets": 8},
        ["--backends", "none", "--sites", "blk-torn-write", "--sets", "8"],
    ),
    "cluster": (
        {
            "backends": ("none",),
            "sites": ("primary-kill", "stale-read"),
            "sets": 12,
            "shards": ("s0", "s1"),
        },
        [
            "--backends", "none",
            "--sites", "primary-kill,stale-read",
            "--sets", "12",
            "--shards", "2",
        ],
    ),
}


def test_default_plans_cover_every_site():
    for site in ("gate-crash", "wild-write", "alloc-exhaustion",
                 "sched-kill", "vm-drop", "vm-dup"):
        plan = default_plan(site, seed=3)
        assert plan.specs, site
    with pytest.raises(ValueError):
        default_plan("meteor", seed=3)


def test_same_seed_same_matrix():
    def matrix():
        result = run_campaign(
            "containment",
            backends=("none", "mpk-shared"),
            sites=("gate-crash", "wild-write"),
            schedules=2,
            seed=42,
        )
        return result.matrix(), [
            (cell["verdict"], cell["injected"], cell["attempts"])
            for cell in result.cells
        ]

    assert matrix() == matrix()


def test_wild_write_contained_by_isolation_not_by_none():
    result = run_campaign(
        "containment",
        backends=("none", "mpk-shared", "vm-rpc"),
        sites=("wild-write",),
        schedules=1,
        seed=0,
    )
    row = result.matrix()["wild-write"]
    assert row["none"] == "propagated"
    assert row["mpk-shared"] in ("contained", "recovered")
    assert row["vm-rpc"] in ("contained", "recovered")
    assert result.containment_rate("none") == 0.0
    assert result.containment_rate("mpk-shared") == 1.0


def test_vm_transient_faults_recovered_by_retry():
    result = run_campaign(
        "containment",
        backends=("vm-rpc", "none"),
        sites=("vm-drop",),
        schedules=1,
        seed=0,
    )
    row = result.matrix()["vm-drop"]
    assert row["vm-rpc"] == "recovered"
    # The site simply cannot fire without a VM boundary.
    assert row["none"] == "not-triggered"


def test_cell_payload_is_json_ready():
    cell = run_cell("mpk-shared", "gate-crash", default_plan("gate-crash", 1))
    json.dumps(cell)  # must not raise
    assert cell["verdict"] in (
        "recovered", "contained", "propagated", "not-triggered"
    )
    assert cell["injected"] >= 1
    assert cell["events"]


def test_recovery_latency_recorded_when_retry_needed():
    result = run_campaign(
        "containment",
        backends=("mpk-shared",),
        sites=("gate-crash",),
        schedules=1,
        seed=0,
    )
    latencies = result.recovery_latencies("mpk-shared")
    assert latencies and all(value > 0 for value in latencies)


def test_cli_check_contained(capsys, tmp_path):
    out = tmp_path / "campaign.json"
    code = main([
        "--kind", "containment",
        "--backends", "mpk-shared",
        "--sites", "wild-write",
        "--schedules", "1",
        "--check", "wild-write",
        "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "containment"
    assert payload["matrix"]["wild-write"]["mpk-shared"] == "recovered"
    assert payload["containment_rate"] == {"mpk-shared": 1.0}
    assert "wild-write" in capsys.readouterr().out


def test_cli_check_contained_fails_for_none_backend(capsys):
    code = main([
        "--backends", "none",
        "--sites", "wild-write",
        "--schedules", "1",
        "--check", "wild-write",
    ])
    assert code == 1
    assert (
        "none at wild-write: verdict 'propagated'" in capsys.readouterr().err
    )


def test_cli_check_fails_when_campaign_has_no_cells(capsys):
    assert main(["--sites", "", "--check", "wild-write"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "== containment campaign, seed 0 (site x backend) ==",
        "  no cells",
    ]
    assert "campaign produced no cells" in err


def _rendered_campaign(text: str) -> tuple[str, dict, str]:
    """The heading, matrix and containment-rate line of the CLI's view."""
    heading, header, *rows, rates = text.splitlines()
    backends = header.split()
    matrix = {}
    for line in rows:
        site, *verdicts = line.split()
        matrix[site] = dict(zip(backends, verdicts))
    return heading, matrix, rates


def test_cli_renders_the_engines_matrix_and_containment_rates(capsys):
    for kind, (options, flags) in SMALL_CAMPAIGNS.items():
        assert main(["--kind", kind, "--seed", "3", *flags]) == 0
        heading, matrix, rates = _rendered_campaign(capsys.readouterr().out)
        engine = run_campaign(kind, seed=3, **options)
        assert heading == f"== {kind} campaign, seed 3 (site x backend) =="
        assert matrix == engine.matrix()
        assert rates == "  containment rate: " + "  ".join(
            f"{backend}={engine.containment_rate(backend):.0%}"
            for backend in engine.backends()
        )
        if kind == "containment":
            assert matrix["wild-write"] == {
                "none": "propagated",
                "vm-rpc": "recovered",
            }


def test_cli_json_to_stdout_is_only_json(capsys):
    """``--json -`` pipes into a JSON reader: the matrix goes to stderr."""
    for kind, (options, flags) in SMALL_CAMPAIGNS.items():
        assert main(["--kind", kind, "--seed", "3", *flags, "--json", "-"]) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["kind"] == kind
        heading, matrix, _ = _rendered_campaign(err)
        assert heading == f"== {kind} campaign, seed 3 (site x backend) =="
        assert matrix == payload["matrix"]


def test_cli_rejects_options_of_another_kind(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--kind", "containment", "--sets", "12"])
    assert exit_info.value.code == 2
    assert "--sets does not apply to --kind containment" in (
        capsys.readouterr().err
    )
