"""Design-space exploration benchmarks (paper §2's two strategies).

Not a paper figure, but the automation the paper positions as FlexOS's
purpose: enumerate the SH-variant × coloring space, run the search
strategies, and time the whole pipeline.  The paper's enumeration is
exponential in the number of hardenable libraries ("iterate through
all combinations of such library versions and run the graph coloring
algorithm"), so these benchmarks measure how far the fast path —
pairwise variant compatibility matrix + coloring memo + lazy
enumeration — pushes the scale wall compared to the eager reference
pipeline, across a library-count × variant-count grid.

The headline comparison (10 libraries × 3 variants, 59049 combos)
asserts the fast path is ≥10× faster with bit-identical deployments
and strategy answers; ``test_explorer_perf_smoke`` is the small-scale
guard.  Seconds and speedups are host time, printed only; the combo
counts, memo sizes, exploration stats and picks are recorded under
``explorer`` in ``benchmarks/results.json``.
"""

from __future__ import annotations

import time

from repro.core.autobench import simulated_perf_fn
from repro.core.builder import library_defs
from repro.core.config import BuildConfig
from repro.core.explorer import (
    Explorer,
    estimate_crossing_cost,
    requirement_satisfied,
    security_score,
)
from repro.core.hardening import (
    LibraryDef,
    enumerate_deployments,
    sh_variants,
)
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


def _eager_strategy_picks(deployments, libdefs) -> dict:
    """Strategy answers computed directly over the eager list, with the
    same first-optimum tie-breaking the Explorer uses."""
    perf = lambda d: estimate_crossing_cost(d, libdefs)  # noqa: E731
    within = [d for d in deployments if perf(d) <= 1e9]
    max_security = max(within, key=security_score) if within else None
    compliant = [
        d
        for d in deployments
        if requirement_satisfied(d, "no-wild-writes", libdefs)
    ]
    best_perf = min(compliant, key=perf) if compliant else None
    return {
        "max_security_within_budget": max_security,
        "best_performance_meeting": best_perf,
    }


def _fast_strategy_picks(explorer: Explorer) -> dict:
    max_security = explorer.max_security_within_budget(budget=1e9)
    best_perf = explorer.best_performance_meeting(["no-wild-writes"])
    return {
        "max_security_within_budget": max_security,
        "best_performance_meeting": best_perf,
    }


def _compare_paths(count: int, alternatives: bool) -> dict:
    """Time eager vs fast enumeration + strategy queries at one scale.

    Two ratios: *enumeration* (the exponential variant-product phase
    this PR attacks — matrix + memo vs per-combo conflict graph and
    coloring) and *pipeline* (enumeration plus both strategy queries;
    the query phase scans every candidate on both paths, so it dilutes
    the headline ratio at small candidate counts).
    """
    defs = synthetic_libdefs(count)
    variants = max(len(sh_variants(d, alternatives)) for d in defs)

    t0 = time.perf_counter()
    eager = enumerate_deployments(defs, alternatives, eager=True)
    eager_enumerate_s = time.perf_counter() - t0
    eager_picks = _eager_strategy_picks(eager, defs)
    eager_total_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    explorer = Explorer(defs, alternatives)
    fast = explorer.deployments
    fast_enumerate_s = time.perf_counter() - t0
    fast_picks = _fast_strategy_picks(explorer)
    fast_total_s = time.perf_counter() - t0

    assert fast == eager, "fast path must be bit-identical to eager"
    keys = lambda picks: {n: p and p.key() for n, p in picks.items()}  # noqa: E731
    assert keys(fast_picks) == keys(eager_picks), (
        "strategy answers must be identical"
    )
    return {
        "libraries": count,
        "variants": variants,
        "combos": len(eager),
        "eager_enumerate_s": eager_enumerate_s,
        "eager_total_s": eager_total_s,
        "fast_enumerate_s": fast_enumerate_s,
        "fast_total_s": fast_total_s,
        "enumerate_speedup": (
            eager_enumerate_s / fast_enumerate_s
            if fast_enumerate_s
            else float("inf")
        ),
        "pipeline_speedup": (
            eager_total_s / fast_total_s if fast_total_s else float("inf")
        ),
        "strategy_picks": {
            name: pick and pick.describe() for name, pick in fast_picks.items()
        },
        "stats": explorer.exploration_stats(),
    }


def _simulated(result: dict) -> dict:
    """The part of a comparison that is not host time."""
    return {
        key: result[key]
        for key in ("libraries", "variants", "combos", "strategy_picks", "stats")
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


def test_fast_vs_eager_headline(report):
    """The acceptance target: ≥10× at 10 libraries × 3 variants."""
    headline = _compare_paths(10, alternatives=True)
    report.value("explorer", "headline", _simulated(headline))
    report.row(
        "Explorer fast path",
        f"10 libs x 3 variants ({headline['combos']} combos): enumeration "
        f"{headline['eager_enumerate_s']:.2f} s -> "
        f"{headline['fast_enumerate_s']:.2f} s "
        f"({headline['enumerate_speedup']:.1f}x); full pipeline "
        f"{headline['eager_total_s']:.2f} s -> "
        f"{headline['fast_total_s']:.2f} s "
        f"({headline['pipeline_speedup']:.1f}x); identical deployments & "
        f"strategy answers",
    )
    assert headline["enumerate_speedup"] >= 10.0
    assert headline["pipeline_speedup"] >= 5.0


def test_explorer_perf_smoke(report):
    """CI guard: the memoized path must not be slower than eager.

    Small scale (6 libraries × 3 variants, 729 combos) so the whole
    test stays under a few seconds on CI runners; the fast path wins by
    a wide margin there, so the 1.0× assertion has plenty of slack.
    """
    result = _compare_paths(6, alternatives=True)
    report.value("explorer", "smoke", _simulated(result))
    report.row(
        "Explorer fast path",
        f"smoke 6 libs x 3 variants: enumeration "
        f"{result['eager_enumerate_s'] * 1e3:.0f} ms -> "
        f"{result['fast_enumerate_s'] * 1e3:.0f} ms "
        f"({result['enumerate_speedup']:.1f}x)",
    )
    assert result["fast_enumerate_s"] <= result["eager_enumerate_s"] * 1.10


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
