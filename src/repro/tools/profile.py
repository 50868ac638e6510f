"""Profile-guided re-compartmentalization: capture → recommend → diff.

The CLI closing the loop between ``repro.obs`` and the explorer
(the full-paper's "automated exploration" direction)::

    # 1. Run a workload under profiling; persist the measured artifact.
    python -m repro.tools.profile capture --workload redis \\
        --libs libc,netstack,redis --backend mpk-shared -o profile.json

    # 2. Feed the measured crossing frequencies back into the explorer:
    #    propose the coloring/backend assignment the workload wants.
    python -m repro.tools.profile recommend --profile profile.json \\
        --require no-wild-writes -o recommended_config.json

    # 3. Compare against the static-estimate pick, with measured costs.
    python -m repro.tools.profile diff --profile profile.json \\
        --require no-wild-writes

``capture`` brackets the run with
:func:`repro.obs.capture_profile` (host-side only: the profiled run is
bit-identical to an unprofiled one).  ``recommend`` ranks candidates
with :func:`repro.core.explorer.profiled_cost_fn` — measured crossing
counts weighted by the target backend's per-crossing cost — and emits a
ready-to-build :class:`~repro.core.config.BuildConfig` JSON.  ``diff``
picks with both estimators, then *re-measures both picks* in the
simulator (same workload, same parameters) and reports the measured
delta; with ``--check`` it exits non-zero unless the profile-guided
pick is at least as fast as the static one.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.autobench import config_for_deployment
from repro.core.builder import build_image, library_defs
from repro.core.config import BuildConfig
from repro.core.explorer import (
    Explorer,
    auto_tune_queue_edges,
    crossing_cost_fn,
    isolation_hints,
    profiled_cost_fn,
    requirement_satisfied,
)
from repro.core.hardening import Deployment
from repro.obs.profile import ProfileError, WorkloadProfile, capture_profile


def _parse_params(entries: list[str]) -> dict:
    """``key=value`` overrides with int coercion (workload params)."""
    params: dict = {}
    for entry in entries:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ValueError(f"--param needs key=value, got {entry!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _config_for_capture(args) -> BuildConfig:
    if args.config:
        data = json.loads(pathlib.Path(args.config).read_text())
        return BuildConfig.from_dict(data)
    libraries = [name for name in args.libs.split(",") if name]
    return BuildConfig(libraries=libraries, backend=args.backend)


def cmd_capture(args) -> int:
    """Build, run under profiling, persist the profile artifact."""
    from repro.apps import run_named_workload, workload_params

    config = _config_for_capture(args)
    params = workload_params(args.workload, _parse_params(args.param))
    image = build_image(config)
    with capture_profile(
        image, args.workload, params, seed=args.seed
    ) as capture:
        summary, _ = run_named_workload(image, args.workload, params)
    profile = capture.profile
    path = profile.save(args.output)
    print(summary)
    print(profile.describe())
    print(f"profile written to {path}")
    return 0


def _explorer_for(profile: WorkloadProfile, args) -> tuple[Explorer, list]:
    config = BuildConfig(libraries=profile.libraries)
    defs = library_defs(config)
    explorer = Explorer(
        defs,
        alternatives=args.alternatives,
        isolate=tuple(args.isolate) + isolation_hints(args.require),
    )
    return explorer, defs


def _deployment_payload(
    deployment: Deployment,
    backend: str,
    profile: WorkloadProfile,
    queue_edges: dict[str, str] | None = None,
) -> dict:
    """A pick as JSON: describable and directly buildable."""
    config = config_for_deployment(
        deployment,
        profile.libraries,
        backend,
        queue_edges=dict(queue_edges or {}),
    )
    return {
        "describe": deployment.describe(),
        "num_compartments": deployment.num_compartments,
        "config": config.to_dict(),
    }


def _tuned_queue_edges(
    profile: WorkloadProfile, backend: str, deployment: Deployment
) -> dict[str, str]:
    """Auto-tuned queue policies for the pick's actual boundary edges.

    :func:`auto_tune_queue_edges` works from the measured profile alone;
    here its proposals are filtered down to edges that cross a
    compartment boundary *in the recommended coloring* (same-compartment
    edges cannot be queued, and a single-compartment pick gets none).
    """
    coloring = deployment.coloring
    tuned = auto_tune_queue_edges(profile, backend=backend)
    kept = {}
    for edge, policy in tuned.items():
        caller, _, callee = edge.partition("->")
        caller_color = coloring.get(caller)
        callee_color = coloring.get(callee)
        if (
            caller_color is not None
            and callee_color is not None
            and caller_color != callee_color
        ):
            kept[edge] = policy
    return kept


def cmd_recommend(args) -> int:
    """Profile → the deployment the measured workload actually wants."""
    profile = WorkloadProfile.load(args.profile)
    backend = args.backend or profile.backend
    explorer, defs = _explorer_for(profile, args)
    perf_fn = profiled_cost_fn(profile, backend=backend)
    pick = explorer.best_performance_meeting(
        list(args.require), perf_fn=perf_fn
    )
    if pick is None:
        print("no deployment satisfies the requirements", file=sys.stderr)
        return 1
    queue_edges = _tuned_queue_edges(profile, backend, pick)
    payload = {
        "profile": str(args.profile),
        "profile_hash": profile.profile_hash(),
        "estimator": perf_fn.estimator,
        "workload": profile.workload,
        "backend": backend,
        "requirements": list(args.require),
        "estimated_cost_ns": perf_fn(pick),
        "queue_edges": queue_edges,
        "recommendation": _deployment_payload(
            pick, backend, profile, queue_edges=queue_edges
        ),
    }
    if args.check:
        # Artifact round-trip: load(save(x)) is identity.
        reloaded = WorkloadProfile.from_dict(
            json.loads(json.dumps(profile.to_dict()))
        )
        if reloaded != profile or (
            reloaded.profile_hash() != profile.profile_hash()
        ):
            print("profile artifact does not round-trip", file=sys.stderr)
            return 1
        for requirement in args.require:
            if not requirement_satisfied(pick, requirement, defs):
                print(
                    f"recommended deployment violates {requirement!r}",
                    file=sys.stderr,
                )
                return 1
        payload["checked"] = True
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"recommendation written to {args.output}")
    print(text)
    return 0


def _measure_pick(
    deployment: Deployment, profile: WorkloadProfile, backend: str
) -> dict:
    """Re-run the profiled workload on a pick; measured numbers.

    The re-run happens **under repro.obs** (same capture machinery as
    the original profile), so the measured cost is the same quantity
    the profile recorded — simulated elapsed ns for the workload's
    measured phase — not an estimate.
    """
    from repro.apps import run_named_workload

    image = build_image(
        config_for_deployment(deployment, profile.libraries, backend)
    )
    with capture_profile(
        image, profile.workload, profile.params, seed=profile.seed
    ) as capture:
        _, numbers = run_named_workload(
            image, profile.workload, profile.params
        )
    measured = capture.profile
    return {
        "elapsed_ns": measured.elapsed_ns,
        "gate_crossings": measured.counters.get("gate_crossings", 0.0),
        "workload_numbers": numbers,
        "profile_hash": measured.profile_hash(),
    }


def cmd_diff(args) -> int:
    """Static-estimate pick vs profile-guided pick, measured."""
    profile = WorkloadProfile.load(args.profile)
    backend = args.backend or profile.backend
    explorer, defs = _explorer_for(profile, args)
    requirements = list(args.require)

    static_fn = crossing_cost_fn(defs, backend=backend)
    profiled_fn = profiled_cost_fn(profile, backend=backend)
    static_pick = explorer.best_performance_meeting(
        requirements, perf_fn=static_fn
    )
    profiled_pick = explorer.best_performance_meeting(
        requirements, perf_fn=profiled_fn
    )
    if static_pick is None or profiled_pick is None:
        print("no deployment satisfies the requirements", file=sys.stderr)
        return 1

    static_measured = _measure_pick(static_pick, profile, backend)
    if profiled_pick.key() == static_pick.key():
        profiled_measured = dict(static_measured)
    else:
        profiled_measured = _measure_pick(profiled_pick, profile, backend)
    delta_ns = (
        static_measured["elapsed_ns"] - profiled_measured["elapsed_ns"]
    )
    payload = {
        "profile": str(args.profile),
        "profile_hash": profile.profile_hash(),
        "workload": profile.workload,
        "backend": backend,
        "requirements": requirements,
        "same_pick": profiled_pick.key() == static_pick.key(),
        "static": {
            **_deployment_payload(static_pick, backend, profile),
            "estimated_cost": static_fn(static_pick),
            "measured": static_measured,
        },
        "profiled": {
            **_deployment_payload(profiled_pick, backend, profile),
            "estimated_cost_ns": profiled_fn(profiled_pick),
            "measured": profiled_measured,
        },
        "measured_delta_ns": delta_ns,
        "measured_speedup": (
            static_measured["elapsed_ns"] / profiled_measured["elapsed_ns"]
            if profiled_measured["elapsed_ns"]
            else 1.0
        ),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
    print(text)
    if args.check and delta_ns < 0:
        print(
            "profile-guided pick measured slower than the static pick "
            f"({-delta_ns:.0f} ns)",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_explore_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="REQ",
        help="safety requirement (repeatable): no-wild-writes, "
        "isolated:<lib>, write-protected:<lib>, cfi:<lib>",
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="target isolation backend (default: the profile's)",
    )
    parser.add_argument(
        "--isolate",
        action="append",
        default=[],
        metavar="LIB",
        help="force LIB into its own compartment (repeatable)",
    )
    parser.add_argument(
        "--alternatives",
        action="store_true",
        help="enumerate both ASAN- and DFI-flavoured hardening variants",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Workload profiling pipeline: capture a measured "
        "profile, feed it back into the explorer, compare against the "
        "static estimate"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="run a workload under profiling, emit profile.json"
    )
    capture.add_argument("--workload", default="redis")
    capture.add_argument("--config", help="JSON BuildConfig file")
    capture.add_argument(
        "--libs", default="libc,netstack,redis", help="comma-separated"
    )
    capture.add_argument("--backend", default="mpk-shared")
    capture.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    capture.add_argument("--seed", type=int, default=None)
    capture.add_argument("-o", "--output", required=True, metavar="FILE")
    capture.set_defaults(func=cmd_capture)

    recommend = sub.add_parser(
        "recommend",
        help="profile → proposed coloring/backend assignment (BuildConfig)",
    )
    recommend.add_argument("--profile", required=True, metavar="FILE")
    _add_explore_args(recommend)
    recommend.add_argument("-o", "--output", metavar="FILE")
    recommend.add_argument(
        "--check",
        action="store_true",
        help="verify the artifact round-trips and the pick satisfies "
        "every requirement (non-zero exit otherwise)",
    )
    recommend.set_defaults(func=cmd_recommend)

    diff = sub.add_parser(
        "diff",
        help="static-estimate pick vs profile-guided pick, with the "
        "measured-cost delta",
    )
    diff.add_argument("--profile", required=True, metavar="FILE")
    _add_explore_args(diff)
    diff.add_argument("-o", "--output", metavar="FILE")
    diff.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if the profile-guided pick measures slower "
        "than the static pick",
    )
    diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProfileError as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
