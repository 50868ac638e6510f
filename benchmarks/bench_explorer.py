"""Design-space exploration benchmarks (paper §2's two strategies).

Not a paper figure, but the automation the paper positions as FlexOS's
purpose: enumerate the SH-variant × coloring space and run the search
strategies.  The paper's enumeration is exponential in the number of
hardenable libraries ("iterate through all combinations of such library
versions and run the graph coloring algorithm"), so these benchmarks
walk a library-count × variant-count grid of synthetic libraries and
record, at 10 libraries × 3 variants (59049 combos) and 6 × 3, what
both strategies pick.  ``tests/core/test_exploration_fast.py`` checks
the same enumeration and picks against the per-combination reference
pipeline.  Seconds are host time, printed only; the combo counts, memo
sizes, exploration stats and picks are recorded under ``explorer`` in
``benchmarks/results.json``.
"""

from __future__ import annotations

import time

from repro.core.autobench import simulated_perf_fn
from repro.core.builder import library_defs
from repro.core.config import BuildConfig
from repro.core.explorer import Explorer, security_score
from repro.core.hardening import LibraryDef, sh_variants
from repro.core.metadata import LibrarySpec, Region, Requires

LIBS = ["libc", "netstack", "vfs", "iperf"]


def synthetic_libdefs(count: int) -> list[LibraryDef]:
    """``count`` libraries, each with 3 SH variants under alternatives.

    Every library is a wild writer/reader whose true behaviour is
    bounded, so ``sh_variants(…, alternatives=True)`` yields
    ``()``/``("asan",)``/``("dfi",)``.  Odd-indexed libraries carry a
    Requires clause (only shared-area writes tolerated), so conflict
    edges appear exactly between a requiring library and any
    *unhardened* neighbour — edge sets vary per combination, and many
    combinations repeat the same conflict graph, which is precisely the
    structure the coloring memo exploits.
    """
    defs = []
    for index in range(count):
        requires = (
            Requires(writes=frozenset({Region.SHARED})) if index % 2 else None
        )
        spec = LibrarySpec(
            name=f"lib{index:02d}",
            reads=frozenset({Region.ALL}),
            writes=frozenset({Region.ALL}),
            calls=frozenset(),
            requires=requires,
        )
        defs.append(
            LibraryDef(
                name=spec.name,
                spec=spec,
                true_behavior={
                    "writes": ["Own", "Shared"],
                    "reads": ["Own", "Shared"],
                },
            )
        )
    return defs


def strategy_facts(count: int) -> dict:
    """Both strategies over ``count`` synthetic libraries × 3 variants."""
    defs = synthetic_libdefs(count)
    explorer = Explorer(defs, alternatives=True)
    picks = {
        "max_security_within_budget": explorer.max_security_within_budget(
            budget=1e9
        ),
        "best_performance_meeting": explorer.best_performance_meeting(
            ["no-wild-writes"]
        ),
    }
    return {
        "libraries": count,
        "variants": max(len(sh_variants(d, True)) for d in defs),
        "combos": len(explorer.deployments),
        "strategy_picks": {
            name: pick and pick.describe() for name, pick in picks.items()
        },
        "stats": explorer.exploration_stats(),
    }


def test_explorer_scaling_grid(report):
    """Fast-path enumeration cost across library count × variant count."""
    grid = []
    for alternatives in (False, True):
        for count in (4, 6, 8, 10):
            defs = synthetic_libdefs(count)
            t0 = time.perf_counter()
            explorer = Explorer(defs, alternatives)
            combos = len(explorer.deployments)
            elapsed = time.perf_counter() - t0
            variants = max(len(sh_variants(d, alternatives)) for d in defs)
            memo = len(explorer.coloring_cache)
            report.row(
                "Explorer scaling",
                f"{count} libs x {variants} variants: {combos} combos in "
                f"{elapsed * 1e3:.0f} ms ({memo} distinct colorings)",
            )
            grid.append(
                {
                    "libraries": count,
                    "variants": variants,
                    "combos": combos,
                    "coloring_memo_size": memo,
                }
            )
    report.value("explorer", "grid", grid)


def test_explorer_strategy_picks(report):
    """Both strategies at 10 libraries × 3 variants and at 6 × 3."""
    for name, count in (("headline", 10), ("smoke", 6)):
        t0 = time.perf_counter()
        facts = strategy_facts(count)
        elapsed = time.perf_counter() - t0
        report.value("explorer", name, facts)
        report.row(
            "Explorer strategies",
            f"{count} libs x {facts['variants']} variants "
            f"({facts['combos']} combos): enumeration and both strategies "
            f"in {elapsed:.2f} s",
        )
        assert facts["combos"] == facts["variants"] ** count


def test_explorer_pipeline(report):
    t0 = time.perf_counter()
    defs = library_defs(BuildConfig(libraries=LIBS))
    explorer = Explorer(defs)
    enumerate_s = time.perf_counter() - t0

    perf = simulated_perf_fn(LIBS, workload="iperf")
    t1 = time.perf_counter()
    # Pre-measure all candidates through the batch path, then run the
    # strategies against the warm memo.
    perf.measure_many(explorer.deployments)
    budget = explorer.max_security_within_budget(budget=1e9, perf_fn=perf)
    safe = explorer.best_performance_meeting(["no-wild-writes"], perf_fn=perf)
    portable = explorer.most_portable(["no-wild-writes"], perf_fn=perf)
    search_s = time.perf_counter() - t1
    report.row(
        "Design-space exploration",
        f"{len(explorer.deployments)} deployments enumerated in "
        f"{enumerate_s * 1e3:.1f} ms; both strategies + portability "
        f"searched (simulation-backed, batch measurement) in "
        f"{search_s:.2f} s",
    )
    report.row(
        "Design-space exploration",
        f"max-security-within-budget -> {budget.describe()} "
        f"(score {security_score(budget):.1f})",
    )
    report.row(
        "Design-space exploration",
        f"best-perf meeting no-wild-writes -> {safe.describe()}",
    )
    deployment, placements = portable
    report.row(
        "Design-space exploration",
        f"most-portable -> {deployment.describe()} "
        f"(runs on {len(placements)} device classes)",
    )
    report.value(
        "explorer",
        "pipeline",
        {
            "deployments": len(explorer.deployments),
            "max_security_within_budget": budget.describe(),
            "max_security_score": security_score(budget),
            "best_performance_meeting": safe.describe(),
            "best_performance_ns_per_byte": perf(safe),
            "most_portable": deployment.describe(),
            "most_portable_devices": sorted(placements),
        },
    )
    assert budget is not None and safe is not None
    assert len(placements) >= 4


def test_exploration_scales_with_library_count(report):
    """Enumeration cost grows with 2^(hardenable libs): measure it."""
    timings = {}
    for libs in (["libc"], ["libc", "netstack"], LIBS):
        t0 = time.perf_counter()
        explorer = Explorer(library_defs(BuildConfig(libraries=libs)))
        timings[len(explorer.deployments)] = time.perf_counter() - t0
    cells = "  ".join(
        f"{count} deployments: {secs * 1e3:.1f} ms"
        for count, secs in sorted(timings.items())
    )
    report.row("Design-space exploration", f"enumeration scaling: {cells}")


def test_persistent_cache_warm_run(tmp_path, report):
    """A warm persistent cache makes a re-exploration build nothing."""
    from repro.obs import exploration_metrics

    cache_path = tmp_path / "perfcache.json"
    defs = library_defs(BuildConfig(libraries=LIBS))

    cold = Explorer(defs)
    cold_perf = simulated_perf_fn(LIBS, workload="iperf", cache_path=cache_path)
    t0 = time.perf_counter()
    cold_perf.measure_many(cold.deployments)
    cold_best = cold.best_performance_meeting(["no-wild-writes"], perf_fn=cold_perf)
    cold_s = time.perf_counter() - t0

    builds_before = exploration_metrics().counter("explore.builds")
    warm = Explorer(defs)
    warm_perf = simulated_perf_fn(LIBS, workload="iperf", cache_path=cache_path)
    t0 = time.perf_counter()
    warm_perf.measure_many(warm.deployments)
    warm_best = warm.best_performance_meeting(["no-wild-writes"], perf_fn=warm_perf)
    warm_s = time.perf_counter() - t0
    builds_after = exploration_metrics().counter("explore.builds")

    assert builds_after == builds_before, "warm run must build zero images"
    assert warm_best.key() == cold_best.key()
    report.value(
        "explorer",
        "persistent_cache",
        {
            "entries": len(warm_perf.perf_cache),
            "warm_builds": builds_after - builds_before,
        },
    )
    report.row(
        "Explorer fast path",
        f"persistent perf cache: cold search {cold_s:.2f} s -> warm "
        f"{warm_s * 1e3:.0f} ms, 0 image builds on the warm run",
    )
