"""repro.obs — compartment-aware tracing and metrics.

The observability layer the isolation explorer reports through: a span
:class:`~repro.obs.tracer.Tracer` driven by the simulated clock (gate
crossings, scheduler quanta, allocator calls, netstack batches) and a
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
simulated-time histograms, caller→callee crossing edges), with
exporters for Chrome trace-event JSON and machine-readable metrics.

Every :class:`~repro.machine.machine.Machine` owns an
:class:`Observability` instance as ``machine.obs``.  The tracer starts
disabled; recording never charges the simulated clock, so enabling it
changes no measured timing and disabling it is a pure no-op.

Quick start::

    image = build_image(config)
    image.machine.obs.tracer.enable()
    run_iperf(image, 1024, 1 << 18)
    write_chrome_trace(image.machine.obs.tracer, "trace.json")
"""

from __future__ import annotations

from repro.obs.export import (
    chrome_trace,
    metrics_json,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    EdgeStats,
    Gauge,
    Histogram,
    MetricsRegistry,
    exploration_metrics,
)
from repro.obs.profile import (
    ProfileCapture,
    ProfileError,
    WorkloadProfile,
    capture_profile,
)
from repro.obs.tracer import HOST_TRACK, SCHED_TRACK, Tracer

__all__ = [
    "EdgeStats",
    "Gauge",
    "HOST_TRACK",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ProfileCapture",
    "ProfileError",
    "SCHED_TRACK",
    "Tracer",
    "WorkloadProfile",
    "capture_profile",
    "chrome_trace",
    "exploration_metrics",
    "metrics_json",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]


class Observability:
    """One machine's tracer + metrics, bundled for easy wiring.

    The registry is shared with the CPU (``cpu.metrics``) so counters
    bumped anywhere in the simulation are visible here; the tracer reads
    the CPU's simulated clock.
    """

    def __init__(self, cpu) -> None:
        self.metrics: MetricsRegistry = cpu.metrics
        self.tracer = Tracer(clock=lambda: cpu.clock_ns)
        # Give the CPU its hook point (wrpkru instants, etc.).
        cpu.tracer = self.tracer
        #: Monotonic generation counter for observability toggles.
        #: Compiled gate crossings cache whether any recorder (tracer
        #: spans, edge-latency histograms) is live and only
        #: re-resolve when this epoch moves — one int compare per
        #: crossing instead of re-checking every hook.
        self.epoch = 0
        self.tracer._on_toggle = self._bump_epoch
        self.metrics._on_obs_toggle = self._bump_epoch

    def _bump_epoch(self) -> None:
        self.epoch += 1
