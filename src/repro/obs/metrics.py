"""The metrics registry: counters, gauges, histograms, crossing edges.

One registry per simulated CPU.  It subsumes the ad-hoc statistics the
reproduction grew organically — the CPU's counters are the registry's
counters (``cpu.bump`` writes the stored table through
:meth:`MetricsRegistry.inc`), and every gate's per-edge crossing count
is read through an :class:`EdgeStats` keyed by the caller→callee edge —
so the crossing heat-matrix the paper's Fig. 5 diagnosis needs falls
out of :meth:`MetricsRegistry.crossing_matrix` without any extra
instrumentation.

The hot paths count each event once, in an int of the object where it
happens: a gate's entries and exits, the machine's loads and stores,
the scheduler's switches.  Those objects are the registry's *sources*;
every counter name they feed is derived from their ints when the
counters are read (DESIGN §6c rule 2).

Histograms record simulated-time (or size) observations and summarise
them with the same nearest-rank percentiles the benchmark suite uses.
Everything here is host-side bookkeeping: no method ever charges the
simulated clock, so metrics can stay always-on without perturbing
measured timings.
"""

from __future__ import annotations

import dataclasses

from repro.perf.meter import left_sum, percentile


@dataclasses.dataclass
class Gauge:
    """A last-value-wins metric (queue depths, heap usage)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Observation series with nearest-rank percentile summaries."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return left_sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def percentile(self, fraction: float) -> float:
        return percentile(self.values, fraction)

    def summary(self) -> dict[str, float]:
        """Count/min/max/mean plus p50/p90/p99."""
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "sum": self.total,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class EdgeStats:
    """Per caller→callee channel accounting (one per linked edge).

    Each gate on the edge counts its own crossings, and ``crossings``
    sums them when read.  Two gates share an edge when one library
    calls two replicas of a callee over the same backend.  Assigning
    ``crossings`` records the edge's total directly, as a registry
    without gates behind its edges does.
    """

    __slots__ = ("caller", "callee", "kind", "gates", "_recorded")

    def __init__(self, caller: str, callee: str, kind: str) -> None:
        self.caller = caller
        self.callee = callee
        self.kind = kind
        #: The gates whose crossings the edge sums.
        self.gates: list = []
        self._recorded = 0

    @property
    def crossings(self) -> int:
        return self._recorded + sum(gate.crossings for gate in self.gates)

    @crossings.setter
    def crossings(self, value: int) -> None:
        self._recorded = value - sum(gate.crossings for gate in self.gates)


class MetricsRegistry:
    """All metrics of one simulated machine, behind one API.

    - :attr:`table` stores the counters that events bump by name
      (``cpu.bump``, and the CHERI grants and guard checks inline); it
      is only ever cleared in place, so writers may bind it;
    - :attr:`counters` is the read view: the table plus every name
      derived from the sources' own counts (:meth:`add_source`);
    - gauges and histograms are created on first use;
    - edges are registered by gates at link time and keyed by
      ``(caller, callee, kind)`` so replicated channels of different
      kinds never alias.
    """

    def __init__(self) -> None:
        #: The stored counter table (see the class docstring).
        self.table: dict[str, float] = {}
        #: Objects that count their own events (see :meth:`add_source`).
        self._sources: list = []
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._edges: dict[tuple[str, str, str], EdgeStats] = {}
        #: When set, boundary gates record each crossing's simulated
        #: duration into the per-edge latency histogram (see
        #: :meth:`edge_latency`).  Off by default: the observations are
        #: host-side only (never charge the clock), but appending one
        #: float per crossing is not free host time, so only profiling
        #: sessions (:mod:`repro.obs.profile`) pay for it.
        self._record_edge_latency = False
        #: Optional zero-arg hook fired when :attr:`record_edge_latency`
        #: flips — the machine's Observability bumps its epoch so
        #: compiled gate crossings re-resolve (exploration registries
        #: leave it unset).
        self._on_obs_toggle: "Callable[[], None] | None" = None

    @property
    def record_edge_latency(self) -> bool:
        return self._record_edge_latency

    @record_edge_latency.setter
    def record_edge_latency(self, value: bool) -> None:
        self._record_edge_latency = bool(value)
        if self._on_obs_toggle is not None:
            self._on_obs_toggle()

    # --- counters ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter (the ``cpu.bump`` write path)."""
        table = self.table
        table[name] = table.get(name, 0.0) + amount

    def add_source(self, source) -> None:
        """Derive counters from ``source``'s own counts on every read.

        A source counts its events in int attributes of its own, where
        they happen.  ``source.derive_counters(view)`` adds to ``view``
        each name those counts feed, and only once its event has
        happened, so a name is present exactly when a bumped table
        would hold it; ``source.zero_counters()`` serves :meth:`reset`.
        """
        self._sources.append(source)

    @property
    def counters(self) -> dict[str, float]:
        """Every counter: the stored table plus the derived names.

        A fresh dict on each read; nothing writes through it.
        """
        view = dict(self.table)
        for source in self._sources:
            source.derive_counters(view)
        return view

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never bumped)."""
        return self.counters.get(name, 0.0)

    # --- gauges / histograms ----------------------------------------------

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # --- edges -----------------------------------------------------------

    def edge(self, caller: str, callee: str, kind: str) -> EdgeStats:
        """The shared accounting record for one channel edge."""
        key = (caller, callee, kind)
        edge = self._edges.get(key)
        if edge is None:
            edge = self._edges[key] = EdgeStats(caller, callee, kind)
        return edge

    def edge_counts(self) -> dict[tuple[str, str, str], int]:
        """Raw crossing counts keyed by (caller, callee, kind).

        Includes zero-crossing edges (every registered channel), so a
        profiling session can snapshot a baseline and compute exact
        deltas even for edges that were already hot before it started.
        """
        return {key: edge.crossings for key, edge in self._edges.items()}

    def edge_latency(self, caller: str, callee: str) -> Histogram:
        """Per-edge crossing-latency histogram (simulated ns).

        Lives in the ordinary histogram table under
        ``gate.latency_ns:caller->callee`` so snapshots and profile
        artifacts pick it up without extra plumbing.  All channel kinds
        on the edge share one histogram — matching
        :meth:`crossing_matrix`'s caller→callee granularity.
        """
        return self.histogram(f"gate.latency_ns:{caller}->{callee}")

    def edges_report(self) -> list[dict]:
        """Used edges as dict rows, busiest first.

        Fully deterministic: ties on the crossing count break by
        (caller, callee, kind), never by registration order, so two
        runs of the same workload emit byte-identical reports and
        profile JSONs diff cleanly.
        """
        rows = [
            {
                "caller": edge.caller,
                "callee": edge.callee,
                "kind": edge.kind,
                "crossings": edge.crossings,
            }
            for edge in self._edges.values()
            if edge.crossings
        ]
        rows.sort(
            key=lambda row: (
                -row["crossings"],
                row["caller"],
                row["callee"],
                row["kind"],
            )
        )
        return rows

    def crossing_matrix(self) -> dict[str, dict[str, int]]:
        """caller → callee → crossings (all channel kinds summed).

        Rows and columns are emitted in sorted order, so the matrix —
        and anything serialised from it — is stable across runs
        regardless of channel registration order.
        """
        totals: dict[tuple[str, str], int] = {}
        for edge in self._edges.values():
            if not edge.crossings:
                continue
            key = (edge.caller, edge.callee)
            totals[key] = totals.get(key, 0) + edge.crossings
        matrix: dict[str, dict[str, int]] = {}
        for caller, callee in sorted(totals):
            matrix.setdefault(caller, {})[callee] = totals[(caller, callee)]
        return matrix

    # --- export / lifecycle -----------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy of everything the registry holds."""
        return {
            "counters": self.counters,
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
            "edges": self.edges_report(),
            "crossing_matrix": self.crossing_matrix(),
        }

    def reset(self) -> None:
        """Clear every metric, the sources' counts included (edges keep
        their identity, zeroed)."""
        self.table.clear()
        for source in self._sources:
            source.zero_counters()
        self._gauges.clear()
        self._histograms.clear()
        for edge in self._edges.values():
            edge._recorded = 0


#: Process-wide registry for the design-space exploration pipeline.
#: Unlike the per-machine registries (one per simulated CPU), the
#: explorer, the coloring memo, and the persistent perf cache run on
#: the *host* across many candidate images, so their bookkeeping —
#: cache hits/misses, image-build counts, per-phase host timings —
#: lives in one shared registry that reports and benchmarks can
#: snapshot after a run.
_EXPLORATION = MetricsRegistry()


def exploration_metrics() -> MetricsRegistry:
    """The shared exploration-pipeline registry (see note above)."""
    return _EXPLORATION
