"""Smoke tests: the bundled examples stay runnable.

Every example runs here; each must exit cleanly and print its landmark
lines.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "can_share: False" in out
    assert "attack stopped by MPK" in out
    assert "unsafe_c[asan+cfi]" in out
    assert "Mb/s simulated" in out


def test_custom_library_example():
    out = run_example("custom_library.py")
    assert "cache_get -> b'cached-value'" in out
    assert "caught: asan:" in out


def test_durable_redis_example():
    out = run_example("durable_redis.py")
    assert "journaled 3 writes" in out
    assert "every flushed write survived" in out
    assert "verdict=recovered-state" in out


def test_iperf_exploration_example():
    out = run_example("iperf_exploration.py")
    assert "Shapes to notice (paper Fig. 3)" in out


def test_redis_tradeoffs_example():
    out = run_example("redis_tradeoffs.py")
    assert (
        "chosen deployment: compartment 0: alloc, libc[asan+cfi], "
        "netstack[asan+cfi], redis, sched" in out
    )
    assert "max security within analytic budget 10.0:" in out


def test_boundary_mechanisms_example():
    out = run_example("boundary_mechanisms.py")
    assert "confused deputy rejected" in out


def test_all_examples_exist_and_have_docstrings():
    expected = {
        "quickstart.py",
        "iperf_exploration.py",
        "redis_tradeoffs.py",
        "custom_library.py",
        "boundary_mechanisms.py",
    }
    found = {path.name for path in EXAMPLES.glob("*.py")}
    assert expected <= found
    for name in expected:
        source = (EXAMPLES / name).read_text()
        assert source.lstrip().startswith(('"""', "#!"))
        assert "Run:" in source
