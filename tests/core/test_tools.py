"""The inspection and inference CLI tools."""

import pytest

from repro.core.config import BuildConfig
from repro.tools.infer import main as infer_main
from repro.tools.infer import report
from repro.tools.inspect import (
    describe_config,
    format_conflicts,
    format_specs,
    main as inspect_main,
)


def test_format_specs_renders_dsl():
    text = format_specs(BuildConfig(libraries=["libc"]))
    assert "--- libc ---" in text
    assert "Read(*)" in text
    assert "--- sched ---" in text
    assert "[Requires]" in text


def test_format_conflicts_explains_edges():
    text = format_conflicts(BuildConfig(libraries=["libc"]))
    assert "libc <-> sched" in text
    assert "may write Own memory" in text


def test_format_conflicts_clean_set():
    text = format_conflicts(BuildConfig(libraries=["iperf"]))
    # iperf/sched/alloc are mutually compatible.
    assert "iperf" not in text or "no conflicts" in text


def test_describe_config_sections():
    text = describe_config(
        BuildConfig(
            libraries=["libc", "netstack"],
            hardening={"netstack": ("asan", "cfi")},
        )
    )
    assert "== Library metadata ==" in text
    assert "== Conflict graph ==" in text
    assert "== Enumerated deployments" in text
    assert "netstack [asan+cfi]" in text


def test_inspect_cli(capsys):
    assert inspect_main(["libc", "--harden", "libc=asan+cfi"]) == 0
    out = capsys.readouterr().out
    assert "libc [asan+cfi]" in out


def test_infer_report_on_mq_workload():
    text = report(["libc", "mq"])
    assert "== mq" in text
    assert "libc::sem_p" in text
    assert "validation against declared metadata" in text


def test_infer_report_redis_workload():
    text = report(["libc", "netstack", "redis"])
    assert "netstack::send" in text  # redis responds
    assert "== redis" in text


def test_infer_cli(capsys):
    assert infer_main(["libc"]) == 0
    out = capsys.readouterr().out
    assert "== libc" in out


def test_infer_fallback_workload_semaphores():
    text = report(["libc"])
    assert "sched::block_notify" in text or "sched::wake_one" in text


def test_infer_report_exercises_httpd_and_time():
    """httpd serves GETs (each makes a ``vfs::fstat`` call) and time
    arms scheduler timers, instead of a semaphore ping-pong."""
    httpd = report(["libc", "netstack", "vfs", "httpd"]).split("== httpd")[1]
    assert "vfs::fstat" in httpd
    assert "declared metadata consistent with the trace" in httpd
    assert "sched::timer_register" in report(["libc", "time"])


def test_infer_report_names_an_unexercised_library():
    vfs = report(["libc", "vfs"]).split("== vfs")[1]
    assert "the workload did not exercise this library" in vfs
    assert "consistent" not in vfs
