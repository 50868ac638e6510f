"""Simulation-backed performance estimation for the explorer.

The paper's exploration strategies need a performance number per
candidate deployment.  The analytic estimator
(:func:`repro.core.explorer.crossing_cost_fn`) is cheap but
unit-free; this module provides the accurate alternative: **build the
candidate image and run a representative workload in it**, returning
simulated nanoseconds per request (lower is better).  Expensive by
comparison (tens of milliseconds of host time per candidate), so three
layers keep repeated exploration cheap:

1. an in-process memo keyed by :meth:`Deployment.key` — the partition
   plus sorted choices, so colorings differing only by a color
   permutation share one measurement;
2. an optional persistent :class:`repro.core.perfcache.PerfCache`
   (``cache_path=``) keyed additionally by workload/backend/config, so
   a warm second run builds **zero** images;
3. :func:`measure_many` / ``perf_fn.measure_many`` — measure a batch
   in order, once per distinct :meth:`Deployment.key`.  Measurement
   is sequential: a candidate is a pure-Python simulation, so a thread
   pool only serialises the runs on the GIL and adds its own overhead.

Build counts and cache traffic land in
:func:`repro.obs.exploration_metrics` (``explore.builds``,
``explore.perfcache.*``, ``explore.measure.*``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.config import BuildConfig
from repro.core.perfcache import PerfCache, candidate_key
from repro.obs.metrics import exploration_metrics

if TYPE_CHECKING:
    from repro.core.hardening import Deployment


def config_for_deployment(
    deployment: "Deployment",
    libraries: list[str],
    backend: str = "mpk-shared",
    **config_overrides,
) -> BuildConfig:
    """The build config of a deployment.

    The deployment's coloring becomes the compartment grouping and its
    SH choices become the hardening map.  ``backend`` applies when the
    deployment has more than one compartment; a single-compartment
    deployment needs no isolation hardware.
    """
    groups = deployment.compartments
    return BuildConfig(
        libraries=libraries,
        compartments=groups,
        backend=backend if len(groups) > 1 else "none",
        hardening={
            lib: techniques
            for lib, techniques in deployment.choices.items()
            if techniques
        },
        **config_overrides,
    )


def build_for_deployment(
    deployment: "Deployment",
    libraries: list[str],
    backend: str = "mpk-shared",
    **config_overrides,
):
    """Materialise a deployment into a bootable image
    (:func:`config_for_deployment`)."""
    from repro.core.builder import build_image

    exploration_metrics().inc("explore.builds")
    return build_image(
        config_for_deployment(deployment, libraries, backend, **config_overrides)
    )


def simulated_perf_fn(
    libraries: list[str],
    workload: str = "iperf",
    backend: str = "mpk-shared",
    scale: int = 1,
    cache_path: str | None = None,
    **config_overrides,
) -> Callable[["Deployment"], float]:
    """A ``perf_fn`` for :class:`repro.core.explorer.Explorer`.

    Returns simulated **ns per unit of work** (per byte for iperf, per
    request for redis) for each candidate deployment; results are
    memoised per :meth:`Deployment.key` so repeated strategy queries —
    and deployments whose colorings differ only by a color
    permutation — don't rebuild images.  With ``cache_path``, the memo
    additionally persists across processes (see module docstring).

    The returned callable carries:

    - ``snapshots`` — deployment key → the image's full metrics
      snapshot (counters, crossing edges, histograms, clock) for every
      candidate *actually simulated this process*, so an exploration
      run can be dissected afterwards; persistent-cache hits skip the
      build and therefore have no snapshot;
    - ``perf_cache`` — the backing :class:`PerfCache`;
    - ``measure_many(deployments)`` — pre-measure a batch (see
      :func:`measure_many`).
    """
    if workload not in ("iperf", "redis"):
        raise ValueError(f"unknown workload {workload!r}")
    perf_cache = PerfCache(cache_path)
    memo: dict = {}
    snapshots: dict = {}

    def simulate(deployment: "Deployment") -> float:
        image = build_for_deployment(
            deployment, libraries, backend, **config_overrides
        )
        if workload == "iperf":
            from repro.apps import run_iperf

            total = scale * (1 << 17)
            result = run_iperf(image, 1024, total)
            cost = result.elapsed_ns / total
        else:
            from repro.apps import (
                make_get_payloads,
                make_set_payloads,
                run_redis_phase,
                start_redis,
            )

            start_redis(image)
            run_redis_phase(
                image,
                make_set_payloads(32, 50, keyspace=32),
                window=8,
                expect_prefix=b"+OK",
            )
            result = run_redis_phase(
                image,
                make_get_payloads(scale * 200, 32),
                window=8,
                expect_prefix=b"$",
            )
            cost = result.ns_per_request
        snapshots[deployment.key()] = image.metrics_snapshot()
        return cost

    def measure(deployment: "Deployment") -> float:
        key = deployment.key()
        if key in memo:
            exploration_metrics().inc("explore.measure.memo_hits")
            return memo[key]
        persistent_key = candidate_key(
            deployment, workload, backend, scale, config_overrides
        )
        cost = perf_cache.get(persistent_key)
        if cost is None:
            cost = simulate(deployment)
            perf_cache.put(persistent_key, cost)
        memo[key] = cost
        return cost

    def batch(deployments: Iterable["Deployment"]) -> list[float]:
        return measure_many(measure, deployments)

    measure.snapshots = snapshots
    measure.perf_cache = perf_cache
    measure.measure_many = batch
    return measure


def measure_many(
    perf_fn: Callable[["Deployment"], float],
    deployments: Iterable["Deployment"],
) -> list[float]:
    """Measure a batch of candidates; returns their costs in input order.

    Candidates sharing a :meth:`Deployment.key` are measured once, in
    first-seen order, and every input reports its key's cost.
    """
    deployments = list(deployments)
    unique: dict = {}
    for deployment in deployments:
        unique.setdefault(deployment.key(), deployment)
    exploration_metrics().inc("explore.measure.batches")
    costs = {key: perf_fn(d) for key, d in unique.items()}
    return [costs[deployment.key()] for deployment in deployments]
