"""Seeded fault-injection campaigns → site × backend verdict matrices.

One engine runs three campaign *kinds*.  A campaign runs one cell per
(fault site × seeded schedule × backend); each cell builds its world,
injects one fault, and reports a ``verdict``.  The matrix keeps the
worst verdict per site × backend across schedules, and a check of a
site passes when every backend's worst verdict is one the kind accepts
there.  A :class:`CampaignKind` records all that differs between
kinds: default backends and sites, the verdict severity order, the
passing verdicts per site, how a site's schedules derive from the
seed, and the cell function.

**Containment** (:func:`run_cell`) drives an iperf transfer with a
bounded retry budget (the supervisor a production deployment would
have) and classifies what the injected fault did:

- ``recovered``  — the fault fired and the workload still completed
  (VM-RPC retries absorbed it, or the failed compartment restarted);
- ``contained``  — the fault was stopped at a boundary (typed
  ``CompartmentFailure``/trap/reaped thread) but the workload did not
  finish within the retry budget;
- ``propagated`` — the fault silently corrupted another compartment's
  memory (a wild write landed) — the outcome isolation exists to
  prevent;
- ``not-triggered`` — the site never fired under this backend (e.g.
  VM notification faults on a non-VM backend).

**Recovery** (:func:`run_recovery_cell`) runs the durability variant:
a redis server journaling SET/DEL through a gate into the storage
compartment (``blk`` + ``kv``), power failures injected at the storage
sites (``blk-torn-write``, ``crash-mid-compaction``,
``crash-mid-recovery``), and a verdict per cell:

- ``recovered-state``  — after crash + reboot + recovery, every
  acknowledged (flushed) write reads back exactly, and no torn record
  surfaced (CRC framing discarded them);
- ``lost-acked-write`` — an acknowledged write is missing after
  recovery (the durability contract is broken);
- ``torn-surfaced``    — recovery exposed garbage bytes (a torn record
  escaped the CRC check) — the worst verdict;
- ``not-triggered``    — the armed fault never fired.

**Cluster** (:func:`repro.cluster.campaign.run_cluster_cell`) asks
whether an acked write survives losing the machine that acked it; its
module documents the sites and verdicts.

Everything is a pure function of the seed and the simulated machine,
so the same seed always yields the identical matrix.

CLI (used by the CI smoke steps)::

    python -m repro.resilience.campaign --kind containment \\
        --backends mpk-shared,vm-rpc --sites wild-write --schedules 1 \\
        --seed 7 --check wild-write
    python -m repro.resilience.campaign --kind recovery --schedules 2 \\
        --seed 11 --check blk-torn-write
    python -m repro.resilience.campaign --kind cluster --sets 24 \\
        --seed 9 --check primary-kill --json -

It prints the site × backend matrix and each backend's containment
rate (:func:`render_campaign`).  ``--json`` adds the full result; each
cluster cell carries its shards' slots, keys, responses and replication
stats, the replication lag and the client's stats.  With ``--json -``
the result is all that goes to stdout, so it pipes into a JSON reader;
the matrix goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import random
import sys
from typing import Callable

from repro.apps.resp import encode_command
from repro.cluster.campaign import EXPECTED, run_cluster_cell
from repro.core.builder import build_image
from repro.core.config import BuildConfig
from repro.machine.faults import MachineError, PowerFailure
from repro.resilience.injector import FaultInjector, arm
from repro.resilience.plan import InjectionPlan

#: Every isolation backend.
_ALL_BACKENDS = ("none", "mpk-shared", "mpk-switched", "vm-rpc", "cheri")

# --- containment campaigns (iperf under compartment faults) -----------------

#: Workload shape: a small iperf transfer, netstack isolated from the
#: rest (the paper's Fig. 3 two-compartment split).
_LIBRARIES = ["libc", "netstack", "iperf"]
_COMPARTMENTS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]
_BUFFER_SIZE = 1024
_TOTAL_BYTES = 32 * 1024


def default_plan(site: str, seed: int) -> InjectionPlan:
    """The canonical single-fault plan for one site."""
    plan = InjectionPlan(seed=seed)
    if site == "gate-crash":
        return plan.crash_crossing(callee="netstack", nth=4)
    if site == "wild-write":
        # A hijacked netstack scribbles into the scheduler's pages —
        # the cross-compartment corruption isolation must stop.
        return plan.wild_write(victim="sched", callee="netstack", nth=4)
    if site == "alloc-exhaustion":
        return plan.exhaust_alloc(heap=None, nth=1)
    if site == "sched-kill":
        # The iperf thread gets few switch-ins under VM backends (it
        # blocks on whole rx batches), so keep the trigger early and
        # the schedule jitter tight or jittered schedules never fire.
        return plan.kill_thread(thread="iperf", nth=1, jitter=1)
    if site == "vm-drop":
        return plan.drop_vm_notify(nth=5)
    if site == "vm-dup":
        return plan.duplicate_vm_notify(nth=5)
    raise ValueError(f"unknown fault site {site!r}")


def _revive(image) -> None:
    """Between attempts: wait out restart backoffs, respawn dead drivers.

    This is the supervisor half of ``restart-with-backoff``: the gate
    restarts a failed compartment on the next crossing once its
    deadline passes, so the supervisor merely advances simulated time
    to that deadline and respawns service threads that died with the
    failure.
    """
    cpu = image.machine.cpu
    for compartment in image.compartments:
        if (
            compartment.failed
            and compartment.failure_policy == "restart-with-backoff"
            and compartment.restart_at_ns > cpu.clock_ns
        ):
            cpu.charge(compartment.restart_at_ns - cpu.clock_ns)
    if image.has_lib("netstack"):
        alive = any(
            thread.name == "netstack-rx"
            for thread in image.scheduler.threads.values()
        )
        if not alive:
            image.start_network()


def _classify(
    injector: FaultInjector,
    completed: bool,
    failures: list[str],
    thread_failures: int,
) -> str:
    if injector.fired == 0:
        return "not-triggered"
    if not injector.probes_intact():
        return "propagated"
    if completed:
        return "recovered"
    stopped = (
        thread_failures > 0
        or any(event.outcome != "landed" for event in injector.events)
        or any(
            name.startswith(("CompartmentFailure", "RPCTimeout"))
            for name in failures
        )
    )
    return "contained" if stopped else "propagated"


def run_cell(
    backend: str,
    site: str,
    plan: InjectionPlan,
    policy: str = "restart-with-backoff",
    attempts: int = 4,
    total_bytes: int = _TOTAL_BYTES,
) -> dict:
    """One campaign cell: build, arm, drive, classify."""
    from repro.apps.workload import run_iperf

    config = BuildConfig(
        libraries=list(_LIBRARIES),
        compartments=[list(group) for group in _COMPARTMENTS],
        backend=backend,
        failure_policy=policy,
        name=f"resilience:{backend}:{site}",
    )
    image = build_image(config)
    injector = arm(image, plan)
    completed = False
    failures: list[str] = []
    first_failure_ns: float | None = None
    used_attempts = 0
    for attempt in range(attempts):
        used_attempts = attempt + 1
        if attempt:
            _revive(image)
        try:
            run_iperf(image, _BUFFER_SIZE, total_bytes)
            completed = True
            break
        except (MachineError, RuntimeError) as exc:
            if isinstance(exc, RuntimeError) and injector.fired == 0:
                # A stall with no injected fault is a harness bug, not
                # a containment result — surface it.
                raise
            failures.append(f"{type(exc).__name__}: {exc}")
            if first_failure_ns is None:
                first_failure_ns = image.clock_ns
    recovery_ns = (
        image.clock_ns - first_failure_ns
        if completed and first_failure_ns is not None
        else None
    )
    thread_failures = len(image.scheduler.thread_failures)
    verdict = _classify(injector, completed, failures, thread_failures)
    counters = image.machine.cpu.metrics.counters
    cell = {
        "backend": backend,
        "site": site,
        "seed": plan.seed,
        "verdict": verdict,
        "completed": completed,
        "attempts": used_attempts,
        "injected": injector.fired,
        "events": [dataclasses.asdict(event) for event in injector.events],
        "failures": failures,
        "thread_failures": thread_failures,
        "contained": int(counters.get("resilience.contained", 0)),
        "restarts": int(counters.get("resilience.restarts", 0)),
        "vm_rpc_retries": int(counters.get("vm_rpc_retries", 0)),
        "recovery_ns": recovery_ns,
        "probes_intact": injector.probes_intact(),
    }
    injector.detach()
    try:
        image.shutdown()
    except MachineError:
        # Teardown of a deliberately-broken image may hit the same
        # failed compartment; the cell verdict is already recorded.
        pass
    return cell


# --- recovery campaigns (durability under power failure) --------------------

#: Workload shape: redis journaling into an isolated storage compartment.
_RECOVERY_LIBRARIES = ["libc", "netstack", "blk", "kv", "redis"]
_RECOVERY_COMPARTMENTS = [
    ["netstack"],
    ["blk", "kv"],
    ["sched", "alloc", "libc", "redis"],
]


def default_recovery_plan(site: str, seed: int) -> InjectionPlan:
    """The canonical single-fault plan for one storage site."""
    plan = InjectionPlan(seed=seed)
    if site == "blk-torn-write":
        return plan.torn_blk_flush(nth=4)
    if site == "crash-mid-compaction":
        # Exactly one compaction runs per cell, so the trigger cannot
        # jitter past it.
        return plan.crash_compaction(nth=1, jitter=0)
    if site == "crash-mid-recovery":
        # The first recovery event is the initial open of the empty
        # store; crash the *post-power-cut* recovery scan instead.  A
        # compacted log may hold a single segment — one recovery event
        # per reboot — so the trigger cannot afford jitter.
        return plan.crash_recovery(nth=2, jitter=0)
    raise ValueError(f"unknown recovery fault site {site!r}")


def _recovery_payloads(count: int) -> tuple[list[bytes], dict[bytes, bytes]]:
    """Deterministic SET requests plus the key → value ground truth."""
    requests: list[bytes] = []
    values: dict[bytes, bytes] = {}
    for index in range(count):
        key = b"rk%04d" % index
        value = (b"%04d" % (index % 10_000)) * 4
        values[key] = value
        requests.append(encode_command(b"SET", key, value))
    return requests, values


def run_recovery_cell(
    backend: str,
    site: str,
    plan: InjectionPlan,
    sets: int = 40,
    attempts: int = 3,
) -> dict:
    """One recovery cell: run durable redis, crash, reboot, verify.

    The :class:`~repro.libos.blk.blkdev.DiskMedium` is the only state
    that survives: each reboot builds a fresh image around the same
    medium, re-attaches the same injector (its fire counters persist
    across reboots, so ``crash-mid-recovery`` can hit the scan *after*
    the crash), and replays recovery.
    """
    from repro.apps.workload import ClosedLoopSource, start_redis
    from repro.libos.blk.blkdev import DiskMedium

    medium = DiskMedium()
    injector = FaultInjector(plan)
    crash_rng = random.Random(plan.seed ^ 0x5EED)

    def build():
        config = BuildConfig(
            libraries=list(_RECOVERY_LIBRARIES),
            compartments=[list(group) for group in _RECOVERY_COMPARTMENTS],
            backend=backend,
            name=f"recovery:{backend}:{site}",
        )
        image = build_image(config)
        image.lib("blk").attach_medium(medium)
        injector.attach(image)
        return image

    def drop(image) -> None:
        """Tear an image down without simulating work (power is off)."""
        injector.detach()
        try:
            image.scheduler.kill_all()
        except MachineError:  # pragma: no cover - teardown best effort
            pass

    requests, values = _recovery_payloads(sets)
    failures: list[str] = []
    image = build()
    image.call("kv", "set_flush_policy", "every-write")
    app = start_redis(image)
    netstack = image.lib("netstack")
    source = ClosedLoopSource(
        app.PORT, requests, window=2, expect_prefix=b"+OK"
    )
    netstack.nic.rx_source = source.source
    netstack.nic.tx_sink = source.sink
    crashed = False
    try:
        image.run(
            until=lambda: source.done,
            max_switches=400 * len(requests) + 40_000,
        )
        if not source.done:
            raise RuntimeError(
                f"redis workload stalled: {source.responses}/{source.total}"
            )
        # One explicit compaction per cell — the crash-mid-compaction
        # site's deterministic target.
        image.call("kv", "compact")
        image.call("kv", "sync")
    except PowerFailure as exc:
        failures.append(f"PowerFailure: {exc}")
        # Power is off: the write-back cache dies with the image; only
        # the medium (and whatever the injector tore onto it) remains.
        medium.generation += 1
        crashed = True
    #: Every SET acknowledged before the lights went out.  Responses
    #: are FIFO (closed loop), so the first N payloads were acked, and
    #: under flush policy ``every-write`` each ack implies a completed
    #: flush barrier.
    acked = dict(list(values.items())[: source.responses])
    drop(image)
    if not crashed:
        # The armed fault never cut power mid-run (e.g. the
        # crash-mid-recovery site): pull the plug ourselves so every
        # cell exercises reboot + recovery with a dirty cache.
        image.lib("blk").crash(crash_rng)

    recover_report = None
    torn_surfaced = False
    for _ in range(attempts):
        image = build()
        try:
            recover_report = image.call("redis", "recover")
            break
        except PowerFailure as exc:
            failures.append(f"PowerFailure: {exc}")
            medium.generation += 1
            drop(image)
        except MachineError as exc:
            # Anything other than a power cut during recovery means a
            # corrupt record escaped the CRC framing.
            failures.append(f"{type(exc).__name__}: {exc}")
            torn_surfaced = True
            drop(image)
            break

    lost: list[bytes] = []
    torn: list[bytes] = []
    kv_stats: dict = {}
    if recover_report is not None:
        app = image.lib("redis")
        for key, value in values.items():
            got = app.value_of(key)
            if key in acked:
                if got is None:
                    lost.append(key)
                elif got != value:
                    torn.append(key)
            elif got is not None and got != value:
                # An unacked write may legally persist (prefix
                # durability) — but only with the exact bytes sent.
                torn.append(key)
        kv_stats = image.call("kv", "kv_stats")
        drop(image)

    if torn_surfaced or torn:
        verdict = "torn-surfaced"
    elif recover_report is None or lost:
        verdict = "lost-acked-write"
    elif injector.fired == 0:
        verdict = "not-triggered"
    else:
        verdict = "recovered-state"
    return {
        "backend": backend,
        "site": site,
        "seed": plan.seed,
        "verdict": verdict,
        "acked": len(acked),
        "restored": (recover_report or {}).get("restored", 0),
        "recover_report": recover_report,
        "injected": injector.fired,
        "events": [dataclasses.asdict(event) for event in injector.events],
        "failures": failures,
        "lost_keys": [key.decode() for key in lost],
        "torn_keys": [key.decode() for key in torn],
        "generations": medium.generation,
        "torn_records_discarded": kv_stats.get("torn_records_discarded", 0),
    }


# --- the engine -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CampaignKind:
    """What sets one kind of campaign apart; the engine does the rest."""

    #: Backends and fault sites a campaign sweeps by default.
    backends: tuple[str, ...]
    sites: tuple[str, ...]
    #: Verdict -> severity; a matrix cell keeps the worst verdict.
    severity: dict[str, int]
    #: The verdicts that pass a check of one site.
    passing: Callable[[str], tuple[str, ...]]
    #: (site, seed, k) -> the site's k schedules, one per cell row.
    schedules: Callable[[str, int, int], list]
    #: (backend, site, schedule, **options) -> one cell with a verdict.
    cell: Callable[..., dict]


KINDS = {
    "containment": CampaignKind(
        backends=_ALL_BACKENDS,
        sites=(
            "gate-crash",
            "wild-write",
            "alloc-exhaustion",
            "sched-kill",
            "vm-drop",
        ),
        severity={
            "not-triggered": 0,
            "recovered": 1,
            "contained": 2,
            "propagated": 3,
        },
        passing=lambda site: ("contained", "recovered"),
        schedules=lambda site, seed, k: default_plan(site, seed).schedules(k),
        cell=run_cell,
    ),
    "recovery": CampaignKind(
        backends=_ALL_BACKENDS,
        sites=("blk-torn-write", "crash-mid-compaction", "crash-mid-recovery"),
        severity={
            "not-triggered": 0,
            "recovered-state": 1,
            "lost-acked-write": 2,
            "torn-surfaced": 3,
        },
        passing=lambda site: ("recovered-state", "not-triggered"),
        schedules=lambda site, seed, k: (
            default_recovery_plan(site, seed).schedules(k)
        ),
        cell=run_recovery_cell,
    ),
    "cluster": CampaignKind(
        backends=("none", "mpk-shared"),
        sites=tuple(EXPECTED),
        severity={
            "not-triggered": 0,
            "rebalance-converged": 1,
            "no-acked-write-lost": 1,
            "stale-read-window": 2,
            "acked-write-lost": 3,
        },
        passing=lambda site: (EXPECTED[site],) if site in EXPECTED else (),
        schedules=lambda site, seed, k: [seed + 7919 * i for i in range(k)],
        cell=run_cluster_cell,
    ),
}


@dataclasses.dataclass
class CampaignResult:
    """Everything one campaign produced."""

    kind: str
    seed: int
    schedules: int
    cells: list[dict]

    def backends(self) -> list[str]:
        """The backends swept, in campaign order."""
        return list(dict.fromkeys(cell["backend"] for cell in self.cells))

    def matrix(self) -> dict[str, dict[str, str]]:
        """site → backend → worst verdict across schedules."""
        severity = KINDS[self.kind].severity
        table: dict[str, dict[str, str]] = {}
        for cell in self.cells:
            row = table.setdefault(cell["site"], {})
            previous = row.get(cell["backend"])
            verdict = cell["verdict"]
            if previous is None or severity[verdict] > severity[previous]:
                row[cell["backend"]] = verdict
        return table

    def passes(self, site: str, verdict: str | None) -> bool:
        """The check rule: does ``verdict`` at ``site`` pass?"""
        return verdict in KINDS[self.kind].passing(site)

    def failures(self, sites) -> list[str]:
        """Why a check of ``sites`` fails; empty when it passes.

        One line per backend whose worst verdict at a checked site does
        not pass, and one if the campaign produced no cells at all.
        """
        if not self.cells:
            return ["campaign produced no cells"]
        matrix = self.matrix()
        problems = []
        for site in sites:
            for backend in self.backends():
                verdict = matrix.get(site, {}).get(backend)
                if not self.passes(site, verdict):
                    problems.append(
                        f"{backend} at {site}: verdict {verdict!r}, expected "
                        f"one of {KINDS[self.kind].passing(site)}"
                    )
        return problems

    def containment_rate(self, backend: str) -> float:
        """Fraction of triggered cells whose verdict passes the check."""
        triggered = [
            cell
            for cell in self.cells
            if cell["backend"] == backend
            and cell["verdict"] != "not-triggered"
        ]
        if not triggered:
            return 1.0
        passed = [
            cell
            for cell in triggered
            if self.passes(cell["site"], cell["verdict"])
        ]
        return len(passed) / len(triggered)

    def recovery_latencies(self, backend: str) -> list[float]:
        """Recovery latencies (ns) of containment cells with a retry."""
        return [
            cell["recovery_ns"]
            for cell in self.cells
            if cell["backend"] == backend
            and cell.get("recovery_ns") is not None
        ]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "schedules": self.schedules,
            "matrix": self.matrix(),
            "containment_rate": {
                backend: self.containment_rate(backend)
                for backend in self.backends()
            },
            "cells": self.cells,
        }


def run_campaign(
    kind: str,
    backends=None,
    sites=None,
    schedules: int = 1,
    seed: int = 0,
    **options,
) -> CampaignResult:
    """K seeded schedules per (site × backend) of one campaign kind.

    ``backends`` and ``sites`` default to the kind's; ``options`` go to
    every cell (``policy`` for containment, ``sets`` for recovery,
    ``sets`` and ``shards`` for cluster).
    """
    spec = KINDS[kind]
    cells = [
        spec.cell(backend, site, schedule, **options)
        for site in (spec.sites if sites is None else sites)
        for schedule in spec.schedules(site, seed, schedules)
        for backend in (spec.backends if backends is None else backends)
    ]
    return CampaignResult(kind, seed, schedules, cells)


def render_campaign(result: CampaignResult) -> str:
    """The site × backend matrix and each backend's containment rate."""
    heading = f"== {result.kind} campaign, seed {result.seed} (site x backend) =="
    if not result.cells:
        return f"{heading}\n  no cells"
    matrix = result.matrix()
    backends = result.backends()
    verdicts = [verdict for row in matrix.values() for verdict in row.values()]
    width = 2 + max(map(len, [*backends, *verdicts]))
    site_width = 2 + max(map(len, matrix))
    lines = [
        heading,
        " " * (2 + site_width)
        + "".join(f"{backend:>{width}s}" for backend in backends),
    ]
    for site, row in matrix.items():
        cells = "".join(f"{row.get(b, '-'):>{width}s}" for b in backends)
        lines.append(f"  {site:{site_width}s}{cells}")
    lines.append(
        "  containment rate: "
        + "  ".join(
            f"{backend}={result.containment_rate(backend):.0%}"
            for backend in backends
        )
    )
    return "\n".join(lines)


def _names(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(name for name in text.split(",") if name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run a seeded fault-injection campaign"
    )
    parser.add_argument(
        "--kind",
        choices=tuple(KINDS),
        default="containment",
        help="campaign kind (default: containment)",
    )
    parser.add_argument(
        "--backends",
        help="comma-separated isolation backends (default: the kind's)",
    )
    parser.add_argument(
        "--sites", help="comma-separated fault sites (default: the kind's)"
    )
    parser.add_argument("--schedules", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--policy",
        choices=("propagate", "isolate", "restart-with-backoff"),
        help="failure policy of containment cells "
        "(default: restart-with-backoff)",
    )
    parser.add_argument(
        "--sets", type=int, metavar="N", help="SETs per recovery or cluster cell"
    )
    parser.add_argument(
        "--shards", type=int, metavar="N", help="shards in each cluster cell"
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the result JSON ('-' = stdout)"
    )
    parser.add_argument(
        "--check",
        action="append",
        default=[],
        metavar="SITE",
        help="exit non-zero unless every selected backend's worst verdict "
        "at SITE passes the kind's check (CI assertion)",
    )
    args = parser.parse_args(argv)
    shards = args.shards
    options = {
        "policy": args.policy,
        "sets": args.sets,
        "shards": None if shards is None else tuple(f"s{i}" for i in range(shards)),
    }
    options = {name: val for name, val in options.items() if val is not None}
    accepted = inspect.signature(KINDS[args.kind].cell).parameters
    for name in options:
        if name not in accepted:
            parser.error(f"--{name} does not apply to --kind {args.kind}")
    result = run_campaign(
        args.kind,
        backends=_names(args.backends),
        sites=_names(args.sites),
        schedules=args.schedules,
        seed=args.seed,
        **options,
    )
    print(render_campaign(result), file=sys.stderr if args.json == "-" else None)
    if args.json:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    failures = result.failures(args.check)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
