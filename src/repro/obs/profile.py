"""Workload profiles: the measured artifact that closes the loop.

FlexOS's full-paper direction is *automated* exploration driven by real
measurements: profile a workload once, feed the measured caller→callee
crossing frequencies back into the explorer, and let it propose a
cheaper compartmentalization for what the workload actually does (the
ROADMAP's "profile-guided re-compartmentalization" item).

This module defines the artifact that crosses that loop:

- :class:`WorkloadProfile` — a schema-versioned, JSON-persistable
  record of one profiled run: per-edge crossing counts (delta over the
  capture window), per-edge gate-latency histogram summaries,
  per-compartment simulated-CPU and allocation shares, plus the
  workload descriptor (name, parameters, seed, libraries, backend,
  layout) needed to reproduce and to re-explore;
- :func:`capture_profile` — a context manager that brackets a live run
  on an :class:`~repro.core.image.Image`; everything it records is
  host-side bookkeeping over the simulated clock, so a profiled run is
  **bit-identical** to an unprofiled one.

Consumers: :func:`repro.core.explorer.profiled_cost_fn` turns a profile
into a measured cost estimator; ``tools/profile.py`` is the CLI
(capture / recommend / diff).

Determinism: every dict in the artifact is emitted in sorted order and
the edge list uses :meth:`MetricsRegistry.edges_report` ordering, so
the same seeded run always serialises to the same bytes and
:meth:`WorkloadProfile.profile_hash` is a stable identity (used by the
perf cache to keep profile-guided scores apart from static ones).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, Iterator

from repro.obs.metrics import Histogram

if TYPE_CHECKING:
    from repro.core.image import Image

#: Bump on any incompatible change to the artifact layout.  Loading a
#: profile with a different schema raises :class:`ProfileError` — a
#: stale profile silently misranking deployments would defeat the whole
#: point of measuring.
SCHEMA_VERSION = 1

#: Prefix of the per-edge latency histograms in the metrics registry.
_LATENCY_PREFIX = "gate.latency_ns:"

#: Prefix of the per-heap allocation-size histograms.
_ALLOC_PREFIX = "alloc.bytes:"


class ProfileError(ValueError):
    """A profile artifact is malformed, unreadable, or wrong-schema."""


@dataclasses.dataclass
class WorkloadProfile:
    """One profiled workload run, ready to persist and to re-explore.

    All measured quantities are **deltas over the capture window**, so
    profiles taken after warm-up phases exclude them.
    """

    #: Workload descriptor: the name (``redis``, ``iperf``, ...) plus
    #: free-form parameters (request counts, payload sizes, ...).
    workload: str
    params: dict
    #: Seed of the run, when the workload was seeded (``None`` = n/a).
    seed: int | None
    #: Isolation backend the profiled image ran under.
    backend: str
    #: Libraries of the profiled config (without implicit sched/alloc),
    #: so a recommender can rebuild the same library set.
    libraries: list[str]
    #: Compartment layout of the profiled image (library name groups).
    compartments: list[list[str]]
    #: Simulated nanoseconds elapsed inside the capture window.
    elapsed_ns: float
    #: Per-edge crossing counts: rows of
    #: ``{caller, callee, kind, crossings}``, busiest first
    #: (deterministic tie-breaks; see ``MetricsRegistry.edges_report``).
    edges: list[dict]
    #: ``"caller->callee"`` → latency-histogram summary (simulated ns)
    #: for crossings completed inside the window.
    gate_latency_ns: dict[str, dict]
    #: Compartment name → simulated ns attributed to it in the window.
    cpu_time_ns: dict[str, float]
    #: Heap name → bytes allocated from it during the window.
    alloc_bytes: dict[str, float]
    #: Selected counter deltas (``gate_crossings``, ``vm_rpcs``, ...).
    counters: dict[str, float]
    schema: int = SCHEMA_VERSION

    # --- derived views ------------------------------------------------------

    def crossing_matrix(self) -> dict[str, dict[str, int]]:
        """caller → callee → crossings (kinds summed, sorted keys)."""
        totals: dict[tuple[str, str], int] = {}
        for row in self.edges:
            key = (row["caller"], row["callee"])
            totals[key] = totals.get(key, 0) + row["crossings"]
        matrix: dict[str, dict[str, int]] = {}
        for caller, callee in sorted(totals):
            matrix.setdefault(caller, {})[callee] = totals[(caller, callee)]
        return matrix

    def edge_items(self) -> Iterator[tuple[str, str, int]]:
        """(caller, callee, crossings) triples, kinds summed."""
        for caller, row in self.crossing_matrix().items():
            for callee, crossings in row.items():
                yield caller, callee, crossings

    @property
    def total_crossings(self) -> int:
        """All boundary-and-direct crossings measured in the window."""
        return sum(row["crossings"] for row in self.edges)

    def lib_cpu_time_ns(self) -> dict[str, float]:
        """Per-library simulated-time share (compartment time split
        evenly among the compartment's members).

        The CPU attributes time to protection domains, not libraries;
        an even split inside each compartment is the best the
        measurement offers and is plenty for weighting SH overheads by
        where the workload actually burns cycles.  Domain names are the
        "+"-joined member list (shared libraries mapped into several
        compartments only appear in the domain that owns them), so the
        name itself is the membership record.
        """
        shares: dict[str, float] = {}
        for name, ns in self.cpu_time_ns.items():
            members = name.split("+")
            for member in members:
                shares[member] = shares.get(member, 0.0) + ns / len(members)
        return dict(sorted(shares.items()))

    # --- identity / persistence ---------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; every mapping in sorted-key order."""
        return {
            "schema": self.schema,
            "workload": self.workload,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "seed": self.seed,
            "backend": self.backend,
            "libraries": list(self.libraries),
            "compartments": [list(group) for group in self.compartments],
            "elapsed_ns": self.elapsed_ns,
            "edges": [dict(row) for row in self.edges],
            "gate_latency_ns": {
                edge: dict(summary)
                for edge, summary in sorted(self.gate_latency_ns.items())
            },
            "cpu_time_ns": dict(sorted(self.cpu_time_ns.items())),
            "alloc_bytes": dict(sorted(self.alloc_bytes.items())),
            "counters": dict(sorted(self.counters.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadProfile":
        """Inverse of :meth:`to_dict`; validates the schema version."""
        if not isinstance(data, dict):
            raise ProfileError("profile artifact must be a JSON object")
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ProfileError(
                f"profile schema {schema!r} unsupported "
                f"(expected {SCHEMA_VERSION}); re-capture the profile"
            )
        required = {
            field.name for field in dataclasses.fields(cls)
        } - {"schema"}
        missing = required - set(data)
        if missing:
            raise ProfileError(f"profile missing keys: {sorted(missing)}")
        return cls(
            workload=data["workload"],
            params=dict(data["params"]),
            seed=data["seed"],
            backend=data["backend"],
            libraries=list(data["libraries"]),
            compartments=[list(group) for group in data["compartments"]],
            elapsed_ns=float(data["elapsed_ns"]),
            edges=[dict(row) for row in data["edges"]],
            gate_latency_ns={
                edge: dict(summary)
                for edge, summary in data["gate_latency_ns"].items()
            },
            cpu_time_ns={
                name: float(ns) for name, ns in data["cpu_time_ns"].items()
            },
            alloc_bytes={
                name: float(b) for name, b in data["alloc_bytes"].items()
            },
            counters={
                name: float(v) for name, v in data["counters"].items()
            },
            schema=SCHEMA_VERSION,
        )

    def dumps(self) -> str:
        """Canonical JSON text (byte-stable for identical profiles)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str | os.PathLike) -> pathlib.Path:
        """Persist to ``path``; returns the written path."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.dumps() + "\n")
        return target

    @classmethod
    def load(cls, path: str | os.PathLike) -> "WorkloadProfile":
        """Load and validate a persisted profile."""
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except OSError as exc:
            raise ProfileError(f"cannot read profile {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProfileError(f"profile {path} is not JSON: {exc}") from exc
        return cls.from_dict(data)

    def profile_hash(self) -> str:
        """Stable short content hash — the estimator identity.

        Two captures of the same seeded workload hash identically;
        any measured difference (different workload, seed, layout, or
        counts) yields a different hash, so cache keys derived from it
        can never alias across profiles.
        """
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def describe(self, top: int = 8) -> str:
        """Human-readable one-screen summary (busiest edges first)."""
        lines = [
            f"profile {self.profile_hash()}: workload={self.workload} "
            f"backend={self.backend} elapsed={self.elapsed_ns / 1e6:.3f} ms "
            f"crossings={self.total_crossings}",
        ]
        for row in self.edges[:top]:
            latency = self.gate_latency_ns.get(
                f"{row['caller']}->{row['callee']}", {}
            )
            p50 = latency.get("p50")
            suffix = f"  p50 {p50:.0f} ns" if p50 is not None else ""
            lines.append(
                f"  {row['caller']:>10s} -> {row['callee']:<10s} "
                f"[{row['kind']:12s}] {row['crossings']:8d}{suffix}"
            )
        return "\n".join(lines)


class ProfileCapture:
    """Bracketing state for one capture window (see
    :func:`capture_profile`).  ``profile`` is populated on exit."""

    def __init__(
        self,
        image: "Image",
        workload: str,
        params: dict | None,
        seed: int | None,
    ) -> None:
        self.image = image
        self.workload = workload
        self.params = dict(params or {})
        self.seed = seed
        self.profile: WorkloadProfile | None = None
        self._baseline: dict | None = None
        self._prev_attribute_time = False
        self._prev_record_latency = False

    # --- window bracketing --------------------------------------------------

    def __enter__(self) -> "ProfileCapture":
        cpu = self.image.machine.cpu
        metrics = self.image.machine.obs.metrics
        self._prev_attribute_time = cpu.attribute_time
        self._prev_record_latency = metrics.record_edge_latency
        cpu.attribute_time = True
        metrics.record_edge_latency = True
        self._baseline = {
            "clock_ns": cpu.clock_ns,
            "edges": metrics.edge_counts(),
            "counters": metrics.counters,
            "cpu_time_ns": dict(cpu.domain_time_ns),
            "alloc": self._alloc_totals(),
            "latency_counts": self._latency_counts(),
        }
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        cpu = self.image.machine.cpu
        metrics = self.image.machine.obs.metrics
        cpu.attribute_time = self._prev_attribute_time
        metrics.record_edge_latency = self._prev_record_latency
        if exc_type is None:
            self.profile = self._build_profile()

    # --- measurement helpers ------------------------------------------------

    def _histograms(self, prefix: str) -> dict[str, Histogram]:
        metrics = self.image.machine.obs.metrics
        return {
            name: hist
            for name, hist in metrics._histograms.items()
            if name.startswith(prefix)
        }

    def _alloc_totals(self) -> dict[str, float]:
        """Bytes allocated per heap so far (histogram running sums)."""
        return {
            name[len(_ALLOC_PREFIX):]: hist.total
            for name, hist in self._histograms(_ALLOC_PREFIX).items()
        }

    def _latency_counts(self) -> dict[str, int]:
        """Observation counts per latency histogram (delta baseline)."""
        return {
            name: hist.count
            for name, hist in self._histograms(_LATENCY_PREFIX).items()
        }

    def _build_profile(self) -> WorkloadProfile:
        image = self.image
        metrics = image.machine.obs.metrics
        baseline = self._baseline
        assert baseline is not None

        edge_base = baseline["edges"]
        rows = []
        for (caller, callee, kind), total in metrics.edge_counts().items():
            delta = total - edge_base.get((caller, callee, kind), 0)
            if delta:
                rows.append(
                    {
                        "caller": caller,
                        "callee": callee,
                        "kind": kind,
                        "crossings": delta,
                    }
                )
        rows.sort(
            key=lambda row: (
                -row["crossings"],
                row["caller"],
                row["callee"],
                row["kind"],
            )
        )

        latency: dict[str, dict] = {}
        latency_base = baseline["latency_counts"]
        for name, hist in sorted(self._histograms(_LATENCY_PREFIX).items()):
            fresh = hist.values[latency_base.get(name, 0):]
            if not fresh:
                continue
            window = Histogram(name)
            window.values = fresh
            latency[name[len(_LATENCY_PREFIX):]] = window.summary()

        cpu_base = baseline["cpu_time_ns"]
        cpu_time = {
            name: ns - cpu_base.get(name, 0.0)
            for name, ns in image.machine.cpu.domain_time_ns.items()
            if ns - cpu_base.get(name, 0.0) > 0
        }

        alloc_base = baseline["alloc"]
        alloc = {
            name: total - alloc_base.get(name, 0.0)
            for name, total in self._alloc_totals().items()
            if total - alloc_base.get(name, 0.0) > 0
        }

        counter_base = baseline["counters"]
        counters = {
            name: value - counter_base.get(name, 0.0)
            for name, value in metrics.counters.items()
            if value - counter_base.get(name, 0.0) != 0
        }

        return WorkloadProfile(
            workload=self.workload,
            params=self.params,
            seed=self.seed,
            backend=image.config.backend,
            libraries=list(image.config.libraries),
            compartments=[
                list(compartment.library_names())
                for compartment in image.compartments
            ],
            elapsed_ns=image.machine.cpu.clock_ns - baseline["clock_ns"],
            edges=rows,
            gate_latency_ns=latency,
            cpu_time_ns=dict(sorted(cpu_time.items())),
            alloc_bytes=dict(sorted(alloc.items())),
            counters=dict(sorted(counters.items())),
        )


def capture_profile(
    image: "Image",
    workload: str,
    params: dict | None = None,
    seed: int | None = None,
) -> ProfileCapture:
    """Profile everything run inside the ``with`` block::

        with capture_profile(image, "redis", {"requests": 300}) as cap:
            run_redis_phase(image, payloads)
        cap.profile.save("profile.json")

    Recording is pure host-side bookkeeping (crossing deltas, latency
    samples, time-attribution), so the simulated run inside the window
    is bit-identical to the same run without the capture — a test
    asserts this.  Captures may nest a warm-up phase outside the
    window; only in-window activity lands in the profile.
    """
    return ProfileCapture(image, workload, params, seed)
