"""Throughput/latency measurement over the simulated clock.

The paper measures wall-clock throughput on a testbed; here the
deterministic simulated clock plays that role, so repeated runs give
identical numbers and shapes are noise-free.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.machine.machine import Machine


def mbps(payload_bytes: float, elapsed_ns: float) -> float:
    """Megabits per second from bytes over simulated nanoseconds."""
    if elapsed_ns <= 0:
        return 0.0
    return payload_bytes * 8.0 / elapsed_ns * 1e3


def gbps(payload_bytes: float, elapsed_ns: float) -> float:
    """Gigabits per second."""
    return mbps(payload_bytes, elapsed_ns) / 1e3


def mreq_per_s(requests: float, elapsed_ns: float) -> float:
    """Million requests per second."""
    if elapsed_ns <= 0:
        return 0.0
    return requests / elapsed_ns * 1e3


def left_sum(values: Iterable[float]) -> float:
    """Sum ``values`` left to right, as ``sum()`` did before Python 3.12.

    From 3.12 on, ``sum()`` of floats compensates rounding error, so the
    same simulated additions would round differently from one Python to
    the next; the golden corpus pins them bit for bit.
    """
    total = 0
    for value in values:
        total += value
    return total


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1]).

    True nearest-rank semantics: the smallest value such that at least
    ``fraction`` of the observations are ≤ it, i.e. the element at rank
    ``ceil(fraction * n)`` (1-based).  ``fraction=0`` returns the
    minimum, ``fraction=1`` the maximum.
    """
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass
class BenchResult:
    """One measurement: work done over a simulated interval."""

    label: str
    payload_bytes: float = 0.0
    requests: float = 0.0
    elapsed_ns: float = 0.0
    stats: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Per-request simulated latencies, when the workload recorded them.
    latencies_ns: list[float] = dataclasses.field(default_factory=list)

    def latency_percentile(self, fraction: float) -> float:
        """Latency percentile in ns (0 when latencies weren't recorded)."""
        return percentile(self.latencies_ns, fraction)

    @property
    def mean_latency_ns(self) -> float:
        """Mean per-request latency (0 when not recorded)."""
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)

    @property
    def throughput_mbps(self) -> float:
        """Payload throughput in Mb/s."""
        return mbps(self.payload_bytes, self.elapsed_ns)

    @property
    def throughput_gbps(self) -> float:
        """Payload throughput in Gb/s."""
        return gbps(self.payload_bytes, self.elapsed_ns)

    @property
    def mreq_s(self) -> float:
        """Request rate in Mreq/s."""
        return mreq_per_s(self.requests, self.elapsed_ns)

    @property
    def ns_per_request(self) -> float:
        """Mean simulated time per request."""
        return self.elapsed_ns / self.requests if self.requests else 0.0

    def __str__(self) -> str:  # pragma: no cover - display
        parts = [self.label]
        if self.payload_bytes:
            parts.append(f"{self.throughput_mbps:.1f} Mb/s")
        if self.requests:
            parts.append(f"{self.mreq_s:.3f} Mreq/s")
        return " ".join(parts)


class Meter:
    """Context manager capturing a clock + counter delta.

    Example::

        with Meter(machine, "iperf 1KiB") as meter:
            image.run(until=server_done)
        result = meter.result(payload_bytes=total)
    """

    def __init__(self, machine: "Machine", label: str = "") -> None:
        self.machine = machine
        self.label = label
        self._start_ns = 0.0
        self._start_stats: dict[str, float] = {}
        self.elapsed_ns = 0.0

    def __enter__(self) -> "Meter":
        self._start_ns = self.machine.cpu.clock_ns
        self._start_stats = self.machine.cpu.metrics.counters
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_ns = self.machine.cpu.clock_ns - self._start_ns

    def stats_delta(self) -> dict[str, float]:
        """Counter changes during the measured interval."""
        current = self.machine.cpu.metrics.counters
        keys = set(current) | set(self._start_stats)
        return {
            key: current.get(key, 0.0) - self._start_stats.get(key, 0.0)
            for key in sorted(keys)
        }

    def result(
        self,
        payload_bytes: float = 0.0,
        requests: float = 0.0,
        latencies_ns: Iterable[float] | None = None,
    ) -> BenchResult:
        """Package the measurement.

        Pass the workload's recorded per-request latencies so
        :meth:`BenchResult.latency_percentile` works from the Meter
        path instead of requiring callers to patch the result.
        """
        return BenchResult(
            label=self.label,
            payload_bytes=payload_bytes,
            requests=requests,
            elapsed_ns=self.elapsed_ns,
            stats=self.stats_delta(),
            latencies_ns=list(latencies_ns) if latencies_ns is not None else [],
        )
