"""Inspection tool: metadata, conflict graph, layouts, deployments.

Usage::

    python -m repro.tools.inspect netstack libc iperf
"""

from __future__ import annotations

import argparse

from repro.core.builder import library_defs
from repro.core.compatibility import conflict_graph, explain_conflict
from repro.core.config import BuildConfig
from repro.core.explorer import Explorer, crossing_cost_fn, security_score
from repro.core.hardening import transform_spec


def format_specs(config: BuildConfig) -> str:
    """Render every selected library's metadata in the paper's DSL."""
    blocks = []
    for libdef in library_defs(config):
        blocks.append(f"--- {libdef.name} ---\n{libdef.spec.describe()}")
    return "\n\n".join(blocks)


def format_conflicts(config: BuildConfig) -> str:
    """Render the conflict graph with per-edge explanations."""
    defs = library_defs(config)
    specs = {d.name: d.spec for d in defs}
    nodes, edges = conflict_graph(list(specs.values()))
    if not edges:
        return "no conflicts: everything may share one compartment"
    lines = [f"{len(edges)} conflict(s) among {len(nodes)} libraries:"]
    for edge in sorted(edges, key=sorted):
        a, b = sorted(edge)
        lines.append(f"  {a} <-> {b}")
        for violation in explain_conflict(specs[a], specs[b]):
            lines.append(f"      {violation}")
    return "\n".join(lines)


def describe_config(config: BuildConfig) -> str:
    """Full report: specs, conflicts, auto layout, SH deployments."""
    defs = library_defs(config)
    explorer = Explorer(defs)
    sections = [
        "== Library metadata ==",
        format_specs(config),
        "",
        "== Conflict graph ==",
        format_conflicts(config),
        "",
        "== Enumerated deployments (SH variants x coloring) ==",
    ]
    cost = crossing_cost_fn(defs)
    for deployment in explorer.deployments:
        sections.append(
            f"  [{deployment.num_compartments} compartment(s), "
            f"analytic cost {cost(deployment):.1f}, security "
            f"{security_score(deployment):.1f}] {deployment.describe()}"
        )
    if config.hardening:
        sections += [
            "",
            "== Effective specs with configured hardening ==",
        ]
        for libdef in defs:
            techniques = tuple(config.hardening.get(libdef.name, ()))
            if techniques:
                narrowed = transform_spec(libdef, techniques)
                sections.append(
                    f"--- {libdef.name} [{'+'.join(techniques)}] ---\n"
                    f"{narrowed.describe()}"
                )
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Inspect FlexOS library metadata and design space"
    )
    parser.add_argument("libraries", nargs="+", help="library names")
    parser.add_argument(
        "--harden",
        action="append",
        default=[],
        metavar="LIB=tech1+tech2",
        help="apply SH techniques to a library",
    )
    args = parser.parse_args(argv)
    hardening = {}
    for entry in args.harden:
        lib, _, techs = entry.partition("=")
        hardening[lib] = tuple(techs.split("+")) if techs else ()
    config = BuildConfig(libraries=args.libraries, hardening=hardening)
    print(describe_config(config))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
