"""The flexos-report CLI."""

import json
import re

import pytest

from repro.core.config import BuildConfig
from repro.tools.report import config_from_args, main as report_main, report


def test_report_iperf_sections():
    config = BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend="mpk-shared",
    )
    text = report(config, "iperf")
    assert "== Layout ==" in text
    assert "Mb/s simulated" in text
    assert "== Gate crossings" in text
    assert "mpk-shared" in text
    assert "== Simulated time by compartment ==" in text
    assert "== Memory ==" in text


def test_report_redis_latencies():
    config = BuildConfig(
        libraries=["libc", "netstack", "redis"],
        backend="none",
    )
    text = report(config, "redis")
    assert "Mreq/s" in text and "p99" in text


def test_report_unknown_workload():
    config = BuildConfig(libraries=["libc"])
    with pytest.raises(ValueError):
        report(config, "quake")


def test_cli_with_flags(capsys):
    assert (
        report_main(
            [
                "--libs",
                "libc,netstack,iperf",
                "--backend",
                "cheri",
                "--workload",
                "iperf",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "cheri" in out


def test_cli_machine_shows_plan_share_of_crossings(capsys):
    """``--machine`` reports the gates built and the crossings they
    served, which are all of the image's edge crossings."""
    assert report_main(["--workload", "iperf", "--machine", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    crossings = sum(row["crossings"] for row in data["crossings"])
    assert data["machine"]["gateplan"]["plan_hits"] == crossings > 0
    assert report_main(["--workload", "iperf", "--machine"]) == 0
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "gates:" in line)
    assert re.search(rf"\d+ built, {crossings} crossings, \d+ refreshes", line)
    assert "DISABLED" not in out


def test_cli_machine_shows_wheel_sweeps_per_round(capsys):
    """``--machine`` reports the timer wheel's sweeps against the
    scheduler rounds that ran, beside its cascades."""
    assert report_main(["--workload", "iperf", "--machine", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)["machine"]
    assert machine["sched_rounds"] > 0
    assert report_main(["--workload", "iperf", "--machine"]) == 0
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "timer wheel:" in line)
    assert line.strip() == (
        f"timer wheel: {machine['wheel_sweeps']} sweeps in "
        f"{machine['sched_rounds']} scheduler rounds, "
        f"{machine['wheel_cascades']} cascades"
    )


def test_cli_machine_shows_no_replayed_idle_polls_on_one_machine(capsys):
    """``--machine`` counts the idle polls replayed instead of run; a
    lone machine's client source cannot look ahead, so none are."""
    assert report_main(["--workload", "iperf", "--machine", "--json"]) == 0
    machine = json.loads(capsys.readouterr().out)["machine"]
    assert machine["idle_replays"] == 0
    assert report_main(["--workload", "iperf", "--machine"]) == 0
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if "idle polls:" in line)
    assert line.strip() == (
        f"idle polls: 0 of {machine['sched_rounds']} scheduler rounds replayed"
    )


def test_cli_with_json_config(tmp_path, capsys):
    config = BuildConfig(
        libraries=["libc", "netstack", "iperf"],
        compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
        backend="vm-rpc",
    )
    path = tmp_path / "build.json"
    path.write_text(json.dumps(config.to_dict()))
    assert report_main(["--config", str(path), "--workload", "iperf"]) == 0
    out = capsys.readouterr().out
    assert "vm-rpc" in out or "vm=" in out


def test_cli_json_output(capsys):
    assert (
        report_main(
            ["--libs", "libc,netstack,iperf", "--workload", "iperf", "--json"]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    # The report covers the image it ran and nothing else.
    assert set(data) == {
        "layout",
        "workload",
        "crossings",
        "crossing_matrix",
        "time_by_compartment_ns",
        "memory",
        "metrics",
        "machine",
        "trace_file",
    }
    assert data["workload"]["name"] == "iperf"
    assert data["workload"]["throughput_mbps"] > 0
    # The caller→callee crossing matrix comes straight from the
    # metrics registry.
    matrix = data["crossing_matrix"]
    assert matrix["iperf"]["netstack"] > 0
    assert data["metrics"]["counters"]["gate_crossings"] > 0
    assert data["time_by_compartment_ns"]


def test_cli_trace_output(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    trace_path = tmp_path / "trace.json"
    assert (
        report_main(
            [
                "--libs",
                "libc,netstack,iperf",
                "--workload",
                "iperf",
                "--trace",
                str(trace_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"trace written to {trace_path}" in out
    data = json.loads(trace_path.read_text())
    assert validate_chrome_trace(data) == []
    assert any(e.get("cat") == "gate" for e in data["traceEvents"])


def test_config_from_harden_flags():
    class Args:
        config = None
        libs = "libc,netstack,iperf"
        backend = "none"
        harden = ["netstack=asan+cfi"]

    config = config_from_args(Args())
    assert config.hardening == {"netstack": ("asan", "cfi")}
