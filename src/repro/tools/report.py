"""Run a configuration and report where its time and memory go.

Usage::

    python -m repro.tools.report --config build.json --workload redis
    python -m repro.tools.report --libs libc,netstack,iperf \\
        --backend mpk-shared --workload iperf
    python -m repro.tools.report --workload redis --trace trace.json --json

Prints the compartment layout, the per-edge gate-crossing counts (the
Fig. 5 diagnosis view), the per-compartment simulated-time attribution,
and the memory report.  ``--trace FILE`` records a Chrome trace-event
JSON of the run (open it in ``chrome://tracing`` or Perfetto);
``--json`` emits the whole report machine-readable — including the
caller→callee crossing matrix and the full metrics snapshot — so
benchmarks and CI can diff reports instead of scraping text.
``--queue`` summarizes queue-channel
activity — submissions, doorbells per op, batch-size and ring-depth
distributions — for configs with ``queue_edges``.

The report covers only the image it builds and runs.  Campaigns have
their own CLI (``python -m repro.resilience.campaign``), and so do
workload profiles (``python -m repro.tools.profile capture``).
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.apps import run_named_workload
from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.obs import write_chrome_trace


def machine_telemetry(images) -> dict:
    """Aggregate host-side simulator telemetry across N machines.

    A cluster run has one :class:`~repro.machine.machine.Machine` per
    shard (plus followers); summing a single ``fastpath_stats()`` would
    silently drop every machine but one.  Counters are summed, and the
    machine count is reported so readers can tell a cluster report
    from a single-machine one.
    """
    total = {
        "machines": 0,
        "tlb_hits": 0,
        "tlb_misses": 0,
        "tlb_invalidations": 0,
        "gateplan": {"plans": 0, "plan_hits": 0, "plan_refreshes": 0},
        "wheel_sweeps": 0,
        "wheel_cascades": 0,
        "sched_rounds": 0,
        "idle_replays": 0,
    }
    for image in images:
        stats = image.machine.fastpath_stats()
        total["machines"] += 1
        for key in ("tlb_hits", "tlb_misses", "tlb_invalidations"):
            total[key] += stats[key]
        for key in ("plans", "plan_hits", "plan_refreshes"):
            total["gateplan"][key] += stats["gateplan"][key]
        scheduler = image.scheduler
        switches = image.machine.cpu.metrics.counter("ctx_switches")
        total["wheel_sweeps"] += scheduler.timer_sweeps
        total["wheel_cascades"] += scheduler.timer_cascades
        total["sched_rounds"] += int(switches)
        total["idle_replays"] += scheduler.idle_replays
    lookups = total["tlb_hits"] + total["tlb_misses"]
    total["tlb_hit_rate"] = total["tlb_hits"] / lookups if lookups else 0.0
    return total


def collect(
    config: BuildConfig, workload: str, trace_path: str | None = None
) -> dict:
    """Build, run, and gather the full report as structured data."""
    image = build_image(config)
    image.machine.cpu.attribute_time = True
    if trace_path:
        image.enable_tracing()
    summary, numbers = run_named_workload(image, workload)
    if trace_path:
        write_chrome_trace(image.machine.obs.tracer, trace_path)
    telemetry = machine_telemetry([image])
    return {
        "layout": image.layout(),
        "workload": {"summary": summary, **numbers},
        "crossings": image.machine.cpu.metrics.edges_report(),
        "crossing_matrix": image.crossing_matrix(),
        "time_by_compartment_ns": dict(image.machine.cpu.domain_time_ns),
        "memory": image.memory_report(),
        "metrics": image.metrics_snapshot(),
        # Host-side simulator telemetry (software TLB, gate crossings).
        # Always collected; the text renderer shows it under --machine.
        "machine": telemetry,
        "trace_file": str(trace_path) if trace_path else None,
    }


def render_text(
    data: dict, show_machine: bool = False, show_queue: bool = False
) -> str:
    """The human-readable report (the original format)."""
    lines = [
        "== Layout ==",
        data["layout"],
        "",
        "== Workload ==",
        data["workload"]["summary"],
    ]

    lines += ["", "== Gate crossings (busiest first) =="]
    for row in data["crossings"][:12]:
        lines.append(
            f"  {row['caller']:10s} -> {row['callee']:10s} "
            f"[{row['kind']:12s}] {row['crossings']:8d}"
        )

    lines += ["", "== Simulated time by compartment =="]
    attribution = data["time_by_compartment_ns"]
    total = sum(attribution.values()) or 1.0
    for name, ns in sorted(attribution.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:28s} {ns / 1e6:9.3f} ms  ({ns / total:5.1%})")

    lines += ["", "== Memory =="]
    for row in data["memory"]:
        lines.append(
            f"  {row['compartment']:28s} owned {row['owned_bytes']:>10d} B, "
            f"heap in use {row['heap_in_use']:>8d} B "
            f"({row['heap_live_blocks']} blocks)"
        )

    if show_queue:
        metrics = data.get("metrics", {})
        counters = metrics.get("counters", {})
        histograms = metrics.get("histograms", {})
        submitted = counters.get("queue.submitted", 0)
        doorbells = counters.get("queue.doorbells", 0)
        completions = counters.get("queue.completions", 0)
        lines += ["", "== Queue channels =="]
        if not submitted:
            lines.append(
                "  no queue-channel traffic (config has no queue_edges?)"
            )
        else:
            lines.append(
                f"  submitted {submitted}, doorbells {doorbells}, "
                f"completions {completions}"
            )
            if doorbells:
                lines.append(
                    f"  doorbells per op: {doorbells / submitted:.3f} "
                    f"(amortisation x{submitted / doorbells:.1f})"
                )
            batch = histograms.get("queue.batch_size", {})
            depth = histograms.get("queue.ring_depth", {})
            if batch.get("count"):
                lines.append(
                    f"  batch size: mean {batch['mean']:.1f}, "
                    f"p50 {batch['p50']:.0f}, max {batch['max']:.0f}"
                )
            if depth.get("count"):
                lines.append(
                    f"  ring depth at submit: mean {depth['mean']:.1f}, "
                    f"p90 {depth['p90']:.0f}, max {depth['max']:.0f}"
                )
            for row in data.get("crossings", []):
                if row["kind"].startswith("queue:"):
                    lines.append(
                        f"  edge {row['caller']} -> {row['callee']} "
                        f"[{row['kind']}]: {row['crossings']} crossings "
                        f"(doorbells + sync calls)"
                    )

    machine = data.get("machine")
    if machine and show_machine:
        lines += ["", "== Simulator telemetry (host-side) =="]
        if machine.get("machines", 1) > 1:
            lines.append(
                f"  aggregated across {machine['machines']} machines"
            )
        lines.append(
            f"  software TLB: {machine['tlb_hits']} hits, "
            f"{machine['tlb_misses']} misses "
            f"({machine['tlb_hit_rate']:.1%} hit rate), "
            f"{machine['tlb_invalidations']} shootdowns"
        )
        gateplan = machine.get("gateplan")
        if gateplan:
            lines.append(
                f"  gates: {gateplan['plans']} built, "
                f"{gateplan['plan_hits']} crossings, "
                f"{gateplan['plan_refreshes']} refreshes"
            )
        if "wheel_sweeps" in machine:
            lines.append(
                f"  timer wheel: {machine['wheel_sweeps']} sweeps in "
                f"{machine['sched_rounds']} scheduler rounds, "
                f"{machine['wheel_cascades']} cascades"
            )
        if "idle_replays" in machine:
            lines.append(
                f"  idle polls: {machine['idle_replays']} of "
                f"{machine['sched_rounds']} scheduler rounds replayed"
            )

    if data.get("trace_file"):
        lines += ["", f"trace written to {data['trace_file']}"]
    return "\n".join(lines)


def report(
    config: BuildConfig, workload: str, trace_path: str | None = None
) -> str:
    """Build, run, and render the full text report."""
    return render_text(collect(config, workload, trace_path))


def config_from_args(args) -> BuildConfig:
    if args.config:
        data = json.loads(pathlib.Path(args.config).read_text())
        return BuildConfig.from_dict(data)
    libraries = [name for name in args.libs.split(",") if name]
    hardening = {}
    for entry in args.harden:
        lib, _, techs = entry.partition("=")
        hardening[lib] = tuple(techs.split("+")) if techs else ()
    return BuildConfig(
        libraries=libraries, backend=args.backend, hardening=hardening
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Build a FlexOS config, run a workload, report costs"
    )
    parser.add_argument("--config", help="JSON BuildConfig file")
    parser.add_argument(
        "--libs", default="libc,netstack,iperf", help="comma-separated libraries"
    )
    parser.add_argument("--backend", default="mpk-shared")
    parser.add_argument(
        "--harden", action="append", default=[], metavar="LIB=tech1+tech2"
    )
    parser.add_argument(
        "--workload", default="iperf", choices=("iperf", "redis")
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a Chrome trace-event JSON of the run to FILE",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--queue",
        action="store_true",
        help="also summarize queue-channel activity (submissions, "
        "doorbells per op, batch-size and ring-depth distributions)",
    )
    parser.add_argument(
        "--machine",
        action="store_true",
        help="also summarize simulator telemetry (software-TLB "
        "hit/miss/shootdown counts, gates, crossings and observer "
        "refreshes, timer-wheel sweeps per scheduler round and "
        "cascades, replayed idle polls — host-side telemetry, never "
        "part of the simulated metrics)",
    )
    args = parser.parse_args(argv)
    if args.trace and not pathlib.Path(args.trace).resolve().parent.is_dir():
        # Fail before the run, not after: the trace would be lost.
        parser.error(f"--trace: directory of {args.trace!r} does not exist")
    data = collect(config_from_args(args), args.workload, args.trace)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(render_text(data, show_machine=args.machine, show_queue=args.queue))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
