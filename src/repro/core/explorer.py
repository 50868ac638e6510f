"""Design-space exploration (paper §2, "Design Overview").

The two strategies the paper sketches:

1. "Given a performance target and a set of predefined compartments,
   find the combination of isolation primitives that maximizes security
   within a certain performance budget" —
   :meth:`Explorer.max_security_within_budget`.
2. "Given a set of safety requirements, find a compliant instantiation
   that yields the best performance" —
   :meth:`Explorer.best_performance_meeting`.

Performance can be estimated analytically (:func:`crossing_cost_fn`,
cheap, good for ranking) or measured by actually building and running
the image (pass a simulation-backed ``perf_fn``; the benchmarks do
this).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.core.coloring import ColoringCache
from repro.core.errors import CompatibilityError
from repro.core.hardening import Deployment, LibraryDef, iter_deployments
from repro.obs.metrics import exploration_metrics
from repro.perf.meter import left_sum

if TYPE_CHECKING:
    from repro.obs.profile import WorkloadProfile

#: Relative runtime weight of each SH technique (used by the analytic
#: estimator; roughly proportional to the measured Table-1 overheads).
SH_WEIGHTS = {
    "asan": 3.0,
    "kasan": 3.0,
    "mte": 0.8,
    "dfi": 2.0,
    "ubsan": 1.0,
    "cfi": 0.5,
    "stackprotector": 0.3,
    "safestack": 0.2,
}


def crossing_cost_fn(
    libdefs: list[LibraryDef], backend: str | None = None
) -> Callable[[Deployment], float]:
    """Analytic cost: boundary call-graph edges + SH instrumentation.

    The returned function counts the (static) call-graph edges that end
    up crossing a compartment boundary — each such edge becomes a gate
    at runtime — plus a weight for every hardened library.  Unit-free:
    useful for ranking candidate deployments, not for absolute
    predictions.  The per-library callee lists and the backend weight
    are resolved once, when the function is made.

    ``backend`` optionally scales the crossing term by the gate
    registry's relative per-crossing cost (normalised to ``mpk-shared``
    = 1), so the analytic ranking agrees with what a measured run on
    that backend would find — a VM-RPC crossing is far dearer relative
    to SH instrumentation than an MPK one.  The default (no backend)
    keeps the historical unit weight.
    """
    weight = 1.0
    if backend is not None:
        from repro.gates.registry import relative_crossing_cost

        mpk_shared = relative_crossing_cost("mpk-shared")
        weight = relative_crossing_cost(backend) / mpk_shared
    callees_by_name = {
        libdef.name: tuple(
            target.split("::", 1)[0]
            for target in (libdef.true_behavior.get("calls") or [])
        )
        for libdef in libdefs
    }

    def cost(deployment: Deployment) -> float:
        coloring = deployment.coloring
        crossings = 0
        for name, color in coloring.items():
            for callee in callees_by_name.get(name, ()):
                if callee in coloring and coloring[callee] != color:
                    crossings += 1
        sh_cost = left_sum(
            SH_WEIGHTS.get(technique, 1.0)
            for techniques in deployment.choices.values()
            for technique in techniques
        )
        return weight * crossings + sh_cost

    return cost


#: Fraction of a library's measured CPU time each SH technique is
#: assumed to add at runtime, derived from the simulator's
#: :class:`repro.machine.cycles.CostModel` factors (ASAN multiplies
#: memory-op cost by 4.4 and memory ops are roughly a third of library
#: time → ~+70%; DFI scales only stores by 2.1 → ~+10%; CFI is a flat
#: few ns per cross-library call → ~+2%).  Finer-grained than
#: :data:`SH_WEIGHTS` (whose asan:dfi ratio of 1.5 is an order of
#: magnitude off the measured ratio) because the profiled estimator is
#: judged in measured nanoseconds, not unit-free ranks.
SH_TIME_FRACTIONS = {
    "asan": 0.70,
    "kasan": 0.70,
    "mte": 0.08,
    "dfi": 0.10,
    "ubsan": 0.12,
    "cfi": 0.02,
    "stackprotector": 0.01,
    "safestack": 0.01,
}
#: Fallback fraction for techniques absent from the table.
SH_TIME_FRACTION_DEFAULT = 0.10


def auto_tune_queue_edges(
    profile: "WorkloadProfile", backend: str | None = None
) -> dict[str, str]:
    """Edges worth converting to queue channels, and their batch sizes,
    from a measured profile.

    Every measured caller→callee edge with at least 64 crossings in the
    window is a candidate.  The batch walks doubling sizes 2, 4, ... up
    to the 64-deep ring and stops as soon as the next doubling would
    shave less than 5% of the backend's synchronous crossing cost off
    the amortised per-operation cost
    (:func:`repro.gates.registry.relative_crossing_cost`) — past that
    knee, deeper batching buys latency exposure (a fuller ring between
    doorbells) without meaningful amortisation.  The curve depends only
    on the backend, so every edge gets the same batch, and an edge that
    crosses 64 times or more always fills it.

    Returns ``{"caller->callee": "batch:N"}``, largest projected saving
    first (ties by edge name) — exactly the form
    :attr:`repro.core.config.BuildConfig.queue_edges` takes, so the
    result can be dropped into a config verbatim.  Empty when the
    backend has no queue variant or batching never beats the
    synchronous gate.
    """
    from repro.gates.registry import relative_crossing_cost

    effective_backend = backend if backend is not None else profile.backend
    if effective_backend in ("none", "direct"):
        return {}
    sync_ns = relative_crossing_cost(effective_backend)
    kind = f"queue:{effective_backend}"

    def per_op_ns(batch: int) -> float:
        return relative_crossing_cost(kind, batch=batch)

    batch = 2
    while batch < 64 and (
        per_op_ns(batch) - per_op_ns(batch * 2) >= 0.05 * sync_ns
    ):
        batch *= 2
    if per_op_ns(batch) >= sync_ns:
        return {}
    rows = sorted(
        (-count, f"{caller}->{callee}")
        for caller, callee, count in profile.edge_items()
        if count >= 64
    )
    return {edge: f"batch:{batch}" for _, edge in rows}


def profiled_cost_fn(
    profile: "WorkloadProfile", backend: str | None = None
) -> Callable[[Deployment], float]:
    """Measured-workload cost estimator: profile in, ``perf_fn`` out.

    Replaces :func:`crossing_cost_fn`'s static call-graph edge
    count with what the workload actually did: each measured
    caller→callee crossing that lands on a compartment boundary in the
    candidate coloring is charged the backend's per-crossing cost
    (:func:`repro.gates.registry.relative_crossing_cost`, round-trip
    ns), and SH techniques are charged a fraction of their library's
    *measured* CPU time (:data:`SH_TIME_FRACTIONS`) — hardening a hot
    library costs more than hardening an idle one.  The
    result is an estimate of the isolation + hardening overhead, in
    simulated nanoseconds, this deployment would add to the profiled
    window, so candidate rankings follow measured frequencies instead
    of static edge counts.

    ``backend`` defaults to the profile's own backend.  Measured edges
    naming libraries absent from a candidate's coloring contribute
    nothing (they cannot cross a boundary that no longer exists).

    The returned callable carries ``profile_hash`` and ``estimator``
    attributes, which name the profile and the backend it prices
    (``tools/profile.py recommend`` reports ``estimator``).
    """
    from repro.gates.registry import relative_crossing_cost

    effective_backend = backend if backend is not None else profile.backend
    crossing_ns = relative_crossing_cost(effective_backend)
    pairs = [
        ((caller, callee), count)
        for caller, callee, count in profile.edge_items()
    ]
    lib_time = profile.lib_cpu_time_ns()

    def cost(deployment: Deployment) -> float:
        coloring = deployment.coloring
        boundary_crossings = 0
        for (caller, callee), count in pairs:
            caller_color = coloring.get(caller)
            callee_color = coloring.get(callee)
            if (
                caller_color is not None
                and callee_color is not None
                and caller_color != callee_color
            ):
                boundary_crossings += count
        sh_ns = left_sum(
            lib_time.get(name, 0.0)
            * left_sum(
                SH_TIME_FRACTIONS.get(technique, SH_TIME_FRACTION_DEFAULT)
                for technique in techniques
            )
            for name, techniques in deployment.choices.items()
        )
        return boundary_crossings * crossing_ns + sh_ns

    cost.profile_hash = profile.profile_hash()
    cost.estimator = f"profiled:{cost.profile_hash}:{effective_backend}"
    return cost


def security_score(deployment: Deployment) -> float:
    """Heuristic security value of a deployment (higher = safer).

    Rewards separation (each additional compartment is a hardware
    boundary an attacker must cross), SH coverage, and penalises
    libraries whose effective spec still allows wild writes while
    sharing a compartment with anyone.
    """
    score = 5.0 * (deployment.num_compartments - 1)
    for techniques in deployment.choices.values():
        score += 2.0 * len(techniques)
    sizes: dict[int, int] = {}
    for color in deployment.coloring.values():
        sizes[color] = sizes.get(color, 0) + 1
    for name, spec in deployment.specs.items():
        if spec.writes_everything and sizes[deployment.coloring[name]] > 1:
            score -= 4.0
    return score


def requirement_satisfied(
    deployment: Deployment, requirement: str, libdefs: list[LibraryDef]
) -> bool:
    """Evaluate one safety requirement against a deployment.

    Supported vocabulary:

    - ``isolated:<lib>`` — the library sits alone in its compartment;
    - ``write-protected:<lib>`` — no co-resident library's effective
      spec can write the library's private memory;
    - ``cfi:<lib>`` — the library's effective calls are bounded;
    - ``no-wild-writes`` — every library with unbounded writes is
      either hardened out of them or isolated alone (the paper's
      "no buffer overflows" style requirement).
    """
    coloring = deployment.coloring
    sizes: dict[int, int] = {}
    for color in coloring.values():
        sizes[color] = sizes.get(color, 0) + 1

    if requirement == "no-wild-writes":
        return all(
            not spec.writes_everything or sizes[coloring[name]] == 1
            for name, spec in deployment.specs.items()
        )
    if ":" not in requirement:
        raise CompatibilityError(f"unknown requirement {requirement!r}")
    kind, lib = requirement.split(":", 1)
    if lib not in coloring:
        raise CompatibilityError(f"requirement names unknown library {lib!r}")
    if kind == "isolated":
        return sizes[coloring[lib]] == 1
    if kind == "write-protected":
        return all(
            not spec.writes_everything
            for name, spec in deployment.specs.items()
            if name != lib and coloring[name] == coloring[lib]
        )
    if kind == "cfi":
        return deployment.specs[lib].calls is not None
    raise CompatibilityError(f"unknown requirement kind {kind!r}")


def isolation_hints(requirements: list[str]) -> tuple[str, ...]:
    """The libraries that ``isolated:<lib>`` requirements name.

    They are the :class:`Explorer`'s ``isolate`` hints for those
    requirements: the coloring merges every compatible pair, so without
    them the explorer never visits a partition that satisfies one.
    """
    return tuple(
        requirement.split(":", 1)[1]
        for requirement in requirements
        if requirement.startswith("isolated:")
    )


#: Device classes and the isolation backends their hardware supports
#: (paper §2: deployments should be able to "run on the largest number
#: of devices (based on the availability of hardware-based
#: mechanisms)").  SH-only deployments (one compartment) run anywhere.
DEVICE_PROFILES: dict[str, frozenset[str]] = {
    "x86-mpk-kvm": frozenset({"none", "mpk-shared", "mpk-switched", "vm-rpc"}),
    "x86-legacy-kvm": frozenset({"none", "vm-rpc"}),
    "arm-virt": frozenset({"none", "vm-rpc"}),
    "cheri-morello": frozenset({"none", "cheri"}),
    "embedded-no-virt": frozenset({"none"}),
}

#: Isolating backends ordered by crossing cost (cheapest first), used
#: to pick the fastest mechanism a device offers.
_BACKEND_PREFERENCE = ("cheri", "mpk-shared", "mpk-switched", "vm-rpc")


def backend_for_device(
    deployment: Deployment, device_backends: frozenset[str]
) -> str | None:
    """The cheapest backend that realises ``deployment`` on a device.

    Single-compartment deployments need no isolation hardware; multi-
    compartment ones need some isolating mechanism.  ``None`` means the
    device cannot host the deployment.
    """
    if deployment.num_compartments <= 1:
        return "none"
    for backend in _BACKEND_PREFERENCE:
        if backend in device_backends:
            return backend
    return None


class Explorer:
    """Enumerates and ranks feasible deployments for a library set.

    The deployments come from :func:`repro.core.hardening.iter_deployments`
    (pairwise variant matrix + coloring memo).  They are enumerated once,
    on first use, and kept: every strategy scans the whole list, in
    enumeration order, and the first optimum wins a tie.

    Per-phase host timings and cache statistics land in the shared
    :func:`repro.obs.exploration_metrics` registry
    (``explore.enumerate_host_ns``, ``explore.query_host_ns``, …).
    """

    def __init__(
        self,
        libdefs: list[LibraryDef],
        alternatives: bool = False,
        isolate: tuple[str, ...] = (),
    ) -> None:
        self.libdefs = libdefs
        self._stats: dict = {}
        self.coloring_cache = ColoringCache()
        self._source = iter_deployments(
            libdefs,
            alternatives,
            isolate=isolate,
            coloring_cache=self.coloring_cache,
            stats=self._stats,
        )
        self._deployments: list[Deployment] | None = None
        self._default_perf: Callable[[Deployment], float] | None = None

    @property
    def deployments(self) -> list[Deployment]:
        """Every feasible deployment (SH combination × coloring)."""
        if self._deployments is None:
            started = time.perf_counter_ns()
            self._deployments = list(self._source)
            exploration_metrics().inc(
                "explore.enumerate_host_ns", time.perf_counter_ns() - started
            )
        return self._deployments

    def exploration_stats(self) -> dict:
        """Matrix and coloring-memo counters of the enumeration, once it
        has run."""
        return {**self._stats, "coloring_memo_size": len(self.coloring_cache)}

    def default_perf(self, deployment: Deployment) -> float:
        """The analytic cost estimator bound to this library set."""
        if self._default_perf is None:
            self._default_perf = crossing_cost_fn(self.libdefs)
        return self._default_perf(deployment)

    def _timed_query(self, name: str):
        """Context manager charging query host-time to the obs registry."""

        class _Timer:
            def __enter__(timer):
                timer.started = time.perf_counter_ns()
                return timer

            def __exit__(timer, *exc) -> None:
                metrics = exploration_metrics()
                elapsed = time.perf_counter_ns() - timer.started
                metrics.inc("explore.query_host_ns", elapsed)
                metrics.inc(f"explore.queries.{name}")
                metrics.histogram("explore.query_ns").observe(elapsed)

        return _Timer()

    def max_security_within_budget(
        self,
        budget: float,
        perf_fn: Callable[[Deployment], float] | None = None,
    ) -> Deployment | None:
        """Strategy 1: the safest deployment whose cost fits the budget."""
        perf = perf_fn if perf_fn is not None else self.default_perf
        best: Deployment | None = None
        best_score = float("-inf")
        with self._timed_query("max_security_within_budget"):
            for deployment in self.deployments:
                if perf(deployment) > budget:
                    continue
                score = security_score(deployment)
                if score > best_score:
                    best, best_score = deployment, score
        return best

    def best_performance_meeting(
        self,
        requirements: list[str],
        perf_fn: Callable[[Deployment], float] | None = None,
    ) -> Deployment | None:
        """Strategy 2: the cheapest deployment meeting all requirements."""
        perf = perf_fn if perf_fn is not None else self.default_perf
        best: Deployment | None = None
        best_cost = float("inf")
        with self._timed_query("best_performance_meeting"):
            for deployment in self.deployments:
                if not all(
                    requirement_satisfied(deployment, requirement, self.libdefs)
                    for requirement in requirements
                ):
                    continue
                cost = perf(deployment)
                if cost < best_cost:
                    best, best_cost = deployment, cost
        return best
    def most_portable(
        self,
        requirements: list[str],
        devices: dict[str, frozenset[str]] | None = None,
        perf_fn: Callable[[Deployment], float] | None = None,
    ) -> tuple[Deployment, dict[str, str]] | None:
        """Strategy 2b: the requirement-compliant deployment that runs
        on the most devices.

        Returns ``(deployment, {device: backend})`` covering the widest
        slice of ``devices`` (default: :data:`DEVICE_PROFILES`); ties
        break toward the better-performing deployment.  Deployments
        whose safety comes from software hardening rather than hardware
        isolation naturally win here — the paper's argument for keeping
        the mechanism choice open until deployment time.
        """
        device_map = devices if devices is not None else DEVICE_PROFILES
        perf = perf_fn if perf_fn is not None else self.default_perf
        best: tuple[Deployment, dict[str, str]] | None = None
        best_key: tuple[int, float] | None = None
        with self._timed_query("most_portable"):
            for deployment in self.deployments:
                if not all(
                    requirement_satisfied(deployment, requirement, self.libdefs)
                    for requirement in requirements
                ):
                    continue
                placements = {}
                for device, backends in device_map.items():
                    backend = backend_for_device(deployment, backends)
                    if backend is not None:
                        placements[device] = backend
                key = (-len(placements), perf(deployment))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (deployment, placements)
        return best
