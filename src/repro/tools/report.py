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
``--profile FILE`` captures a schema-versioned
:class:`repro.obs.WorkloadProfile` of the run — the measured artifact
``tools/profile.py recommend`` feeds back into the explorer.
``--resilience``, ``--recovery`` and ``--cluster`` each also run one
seeded campaign (:mod:`repro.resilience.campaign`) on its kind's
default sites and backends and print its site × backend verdict
matrix: containment of compartment faults, durable redis state after
crash + reboot, and acked writes across cluster failover.
``--cluster`` also reports a small sharded, replicated redis
cluster's slot balance and replication lag (see :mod:`repro.cluster`).
``--queue`` summarizes queue-channel
activity — submissions, doorbells per op, batch-size and ring-depth
distributions — for configs with ``queue_edges``.
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.obs import exploration_metrics, write_chrome_trace


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
        total["wheel_sweeps"] += scheduler.timer_sweeps
        total["wheel_cascades"] += scheduler.timer_cascades
        total["sched_rounds"] += scheduler.total_switches
        total["idle_replays"] += scheduler.idle_replays
    lookups = total["tlb_hits"] + total["tlb_misses"]
    total["tlb_hit_rate"] = total["tlb_hits"] / lookups if lookups else 0.0
    return total


def run_workload(image, workload: str) -> tuple[str, dict]:
    """Drive the named workload; returns (one-line summary, raw numbers).

    Thin wrapper over :func:`repro.apps.run_named_workload` (the single
    workload registry shared with ``tools/profile.py``).
    """
    from repro.apps import run_named_workload

    return run_named_workload(image, workload)


def collect(
    config: BuildConfig,
    workload: str,
    trace_path: str | None = None,
    profile_path: str | None = None,
) -> dict:
    """Build, run, and gather the full report as structured data.

    ``profile_path`` additionally captures a
    :class:`repro.obs.WorkloadProfile` of the run (crossing deltas,
    gate latencies, cpu/alloc shares) and persists it there — the
    artifact ``tools/profile.py recommend`` feeds back into the
    explorer.
    """
    image = build_image(config)
    image.machine.cpu.attribute_time = True
    if trace_path:
        image.enable_tracing()
    if profile_path:
        from repro.obs import capture_profile

        with capture_profile(image, workload) as capture:
            summary, numbers = run_workload(image, workload)
        profile = capture.profile
        profile.save(profile_path)
    else:
        profile = None
        summary, numbers = run_workload(image, workload)
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
        # Host-side exploration-pipeline statistics (perf-cache and
        # coloring-memo hit rates, image-build counts, query timings).
        # All zeros unless this process also ran the explorer, but the
        # key is always present so CI can diff report shapes.
        "exploration": exploration_metrics().snapshot(),
        # Host-side simulator telemetry (software TLB, gate crossings).
        # Always collected; the text renderer shows it under --machine.
        "machine": telemetry,
        "trace_file": str(trace_path) if trace_path else None,
        "profile_file": str(profile_path) if profile_path else None,
        "profile_hash": profile.profile_hash() if profile else None,
    }


#: Report section (and its CLI flag) -> (campaign kind, matrix heading).
CAMPAIGN_SECTIONS = {
    "resilience": ("containment", "Containment matrix"),
    "recovery": ("recovery", "Recovery verdicts"),
    "cluster": ("cluster", "Cluster verdicts"),
}


def collect_campaign(kind: str, **kwargs) -> dict:
    """One campaign's result: :func:`~repro.resilience.campaign.run_campaign`
    of ``kind`` with ``kwargs``."""
    from repro.resilience.campaign import run_campaign

    return run_campaign(kind, **kwargs).to_dict()


def collect_cluster(sets: int = 18) -> dict:
    """A live three-shard replicated cluster after ``sets`` SETs.

    Slot balance, replication lag and per-machine fast-path telemetry
    aggregated with :func:`machine_telemetry`.
    """
    from repro.cluster.client import ClusterClient
    from repro.cluster.cluster import RedisCluster

    cluster = RedisCluster(shards=("s0", "s1", "s2"), replicate=True)
    client = ClusterClient(cluster)
    for index in range(sets):
        client.set(b"key:%03d" % index, b"v%03d" % index * 4)
    client.drive()
    return {
        "slots": cluster.map.counts(),
        "epoch": cluster.map.epoch,
        "shards": cluster.shard_report(),
        "client": client.stats(),
        "replication_lag": cluster.replication_lag(),
        "machine": machine_telemetry(cluster.images()),
    }


def render_campaign(heading: str, campaign: dict) -> list[str]:
    """A campaign's site × backend matrix and containment rates."""
    matrix = campaign["matrix"]
    rates = campaign["containment_rate"]
    backends = sorted(rates)
    verdicts = [verdict for row in matrix.values() for verdict in row.values()]
    width = 2 + max(map(len, [*backends, *verdicts]))
    site_width = 2 + max(map(len, matrix))
    header = "".join(f"{backend:>{width}s}" for backend in backends)
    lines = ["", f"== {heading} (site x backend) =="]
    lines.append(" " * (2 + site_width) + header)
    for site, row in sorted(matrix.items()):
        cells = "".join(f"{row.get(b, '-'):>{width}s}" for b in backends)
        lines.append(f"  {site:{site_width}s}{cells}")
    lines.append(
        "  containment rate: "
        + "  ".join(f"{backend}={rates[backend]:.0%}" for backend in backends)
    )
    return lines


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
    snapshot = data.get("cluster", {}).get("snapshot")
    if snapshot:
        lines += ["", "== Cluster (sharded, replicated redis) =="]
        slots = "  ".join(
            f"{shard}={count}"
            for shard, count in sorted(snapshot["slots"].items())
        )
        lines.append(f"  slot balance: {slots} (epoch {snapshot['epoch']})")
        for row in snapshot["shards"]:
            repl = row.get("replication") or {}
            lines.append(
                f"  {row['shard']}: serving {row['serving']}, "
                f"{row['keys']} keys, {row['responses']} responses, "
                f"repl applied {repl.get('applied', 0)} "
                f"(retries {repl.get('retries', 0)})"
            )
        lag = snapshot["replication_lag"]
        if lag["samples"]:
            lines.append(
                f"  replication lag: mean {lag['mean_ns'] / 1e3:.1f} us, "
                f"max {lag['max_ns'] / 1e3:.1f} us "
                f"({lag['samples']} samples)"
            )
    for section, (_, heading) in CAMPAIGN_SECTIONS.items():
        if data.get(section):
            lines += render_campaign(heading, data[section])

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
    if data.get("profile_file"):
        lines += [
            "",
            f"profile {data['profile_hash']} written to "
            f"{data['profile_file']}",
        ]
    return "\n".join(lines)


def report(
    config: BuildConfig, workload: str, trace_path: str | None = None
) -> str:
    """Build, run, and render the full text report."""
    return render_text(collect(config, workload, trace_path))


def _check_output_dir(parser, flag: str, path: str | None) -> None:
    """Fail before the run, not after: the simulation can take a while
    and the artifact would be lost."""
    if path and not pathlib.Path(path).resolve().parent.is_dir():
        parser.error(f"{flag}: directory of {path!r} does not exist")


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
        "--profile",
        metavar="FILE",
        help="capture a WorkloadProfile of the run (measured crossing "
        "counts, gate latencies, cpu/alloc shares) to FILE — the "
        "artifact tools/profile.py feeds back into the explorer",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as machine-readable JSON instead of text",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="also run a seeded fault-injection campaign and report the "
        "site x backend containment matrix",
    )
    parser.add_argument(
        "--resilience-seed", type=int, default=0, metavar="N"
    )
    parser.add_argument(
        "--resilience-schedules", type=int, default=1, metavar="K"
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="also run a storage recovery campaign (power failures at "
        "the blk/kv sites) and report the recovery verdict matrix",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="also run a small sharded/replicated cluster plus its "
        "failure campaign and report slot balance, replication lag, "
        "and the site x backend verdict matrix",
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
    _check_output_dir(parser, "--trace", args.trace)
    _check_output_dir(parser, "--profile", args.profile)
    data = collect(
        config_from_args(args), args.workload, args.trace, args.profile
    )
    for section, (kind, _) in CAMPAIGN_SECTIONS.items():
        if getattr(args, section):
            data[section] = collect_campaign(
                kind, seed=args.resilience_seed, schedules=args.resilience_schedules
            )
    if args.cluster:
        data["cluster"]["snapshot"] = collect_cluster()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(render_text(data, show_machine=args.machine, show_queue=args.queue))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
