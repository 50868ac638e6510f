"""Resilience benchmark: containment rate and recovery latency.

Not a figure from the paper, but a measurement of the claim behind all
of them: the isolation backends differ in *what a compartment failure
can do*, not just in crossing cost.  A seeded fault-injection campaign
(see :mod:`repro.resilience`) runs the iperf workload while injecting
faults at every site the harness knows, per backend, and measures:

- **containment rate** — the fraction of triggered faults stopped at a
  compartment boundary (contained or recovered);
- **recovery latency** — simulated ns from first failure to workload
  completion for cells that recovered via restart/retry.

The headline assertions: every hardware-isolation backend
(mpk-shared, mpk-switched, vm-rpc, cheri) contains a cross-compartment
wild write that backend ``none`` lets corrupt the victim silently, and
the VM backend recovers dropped notifications through gate-level
retry/backoff.  The matrix, rates, latencies and cells are recorded
under ``resilience`` in ``benchmarks/results.json``.
"""

from __future__ import annotations

from repro.perf.meter import left_sum
from repro.resilience import run_campaign

BACKENDS = ("none", "mpk-shared", "mpk-switched", "vm-rpc", "cheri")
SITES = ("gate-crash", "wild-write", "alloc-exhaustion", "sched-kill", "vm-drop")
ISOLATING = ("mpk-shared", "mpk-switched", "vm-rpc", "cheri")
SEED = 7
POLICY = "restart-with-backoff"


def test_containment_matrix(report):
    result = run_campaign(
        "containment",
        backends=BACKENDS,
        sites=SITES,
        schedules=2,
        seed=SEED,
        policy=POLICY,
    )
    matrix = result.matrix()

    # The headline claim: isolation contains the wild write, "none"
    # lets it silently corrupt the victim compartment.
    assert matrix["wild-write"]["none"] == "propagated"
    for backend in ISOLATING:
        assert matrix["wild-write"][backend] in ("contained", "recovered"), (
            backend,
            matrix["wild-write"][backend],
        )
    # Transient VM-RPC faults are absorbed by the gate's retry/backoff.
    assert matrix["vm-drop"]["vm-rpc"] == "recovered"
    retried = [
        cell
        for cell in result.cells
        if cell["backend"] == "vm-rpc" and cell["site"] == "vm-drop"
    ]
    assert any(cell["vm_rpc_retries"] > 0 for cell in retried)

    rates = {backend: result.containment_rate(backend) for backend in BACKENDS}
    latencies = {
        backend: result.recovery_latencies(backend) for backend in BACKENDS
    }
    mean_recovery = {
        backend: (left_sum(values) / len(values) if values else None)
        for backend, values in latencies.items()
    }
    assert rates["none"] < 1.0
    for backend in ISOLATING:
        assert rates[backend] == 1.0

    for site in SITES:
        row = matrix[site]
        report.row(
            "resilience",
            f"{site:18s} " + "  ".join(
                f"{backend}={row.get(backend, '-')}" for backend in BACKENDS
            ),
        )
    report.row(
        "resilience",
        "containment rate: "
        + "  ".join(f"{b}={rates[b]:.0%}" for b in BACKENDS),
    )
    for backend, mean in mean_recovery.items():
        if mean is not None:
            report.row(
                "resilience",
                f"mean recovery {backend}: {mean / 1e3:.1f} us simulated",
            )
    report.value("resilience", "matrix", matrix)
    report.value("resilience", "containment_rate", rates)
    report.value("resilience", "mean_recovery_ns", mean_recovery)
    report.value("resilience", "recovery_ns", latencies)
    report.value(
        "resilience",
        "cells",
        [
            {
                key: cell[key]
                for key in (
                    "backend",
                    "site",
                    "seed",
                    "verdict",
                    "attempts",
                    "injected",
                    "restarts",
                    "vm_rpc_retries",
                    "recovery_ns",
                )
            }
            for cell in result.cells
        ],
    )


def test_same_seed_identical_matrix(report):
    """Determinism acceptance: the campaign is a pure function of seed."""
    kwargs = dict(
        backends=("none", "vm-rpc"),
        sites=("wild-write", "vm-drop"),
        schedules=2,
        seed=SEED,
    )
    first = run_campaign("containment", **kwargs)
    second = run_campaign("containment", **kwargs)
    assert first.matrix() == second.matrix()
    assert [c["verdict"] for c in first.cells] == [
        c["verdict"] for c in second.cells
    ]
    report.row("resilience", "same seed -> identical matrix: ok")
