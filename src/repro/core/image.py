"""A built FlexOS image: compartments wired, ready to boot and run."""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.core.config import BuildConfig
from repro.core.errors import BuildError
from repro.libos.compartment import Compartment
from repro.libos.library import Linker, MicroLibrary
from repro.libos.sched.base import Thread
from repro.libos.sched.coop import CoopScheduler
from repro.machine.machine import Machine

#: Boot precedence: services come up before their consumers; apps last.
_BOOT_ORDER = {
    "alloc": 0,
    "sched": 1,
    "libc": 2,
    "mq": 3,
    "netstack": 4,
    "blk": 5,
    "kv": 6,
}


def _boot_rank(library: MicroLibrary) -> int:
    return _BOOT_ORDER.get(library.NAME, 10)


class Image:
    """The runnable result of :func:`repro.core.builder.build_image`."""

    def __init__(
        self,
        machine: Machine,
        config: BuildConfig,
        compartments: list[Compartment],
        linker: Linker,
        libraries: dict[str, MicroLibrary],
        all_instances: list[MicroLibrary],
        scheduler: CoopScheduler,
    ) -> None:
        self.machine = machine
        self.config = config
        self.compartments = compartments
        self.linker = linker
        self._libraries = libraries
        self._all_instances = all_instances
        self.scheduler = scheduler
        self._booted = False

    # --- access -----------------------------------------------------------

    def lib(self, name: str) -> MicroLibrary:
        """The primary instance of the named library."""
        library = self._libraries.get(name)
        if library is None:
            raise BuildError(f"image has no library {name!r}")
        return library

    def has_lib(self, name: str) -> bool:
        """True if the image links the named library."""
        return name in self._libraries

    def compartment_of(self, name: str) -> Compartment:
        """The compartment holding the named library."""
        return self.lib(name).compartment

    @property
    def clock_ns(self) -> float:
        """Current simulated time."""
        return self.machine.cpu.clock_ns

    @property
    def obs(self):
        """The machine's observability bundle (tracer + metrics)."""
        return self.machine.obs

    def enable_tracing(self):
        """Turn on span recording; returns the tracer for exporting."""
        return self.machine.obs.tracer.enable()

    # --- lifecycle ----------------------------------------------------------

    def boot(self) -> None:
        """Run every library's post-link initialisation, start drivers."""
        if self._booted:
            raise BuildError("image already booted")
        for library in sorted(self._all_instances, key=_boot_rank):
            context = library.compartment.make_context(
                label=f"boot:{library.NAME}"
            )
            self.machine.cpu.push_context(context)
            try:
                library.on_boot()
            finally:
                self.machine.cpu.pop_context()
        self._booted = True
        if "netstack" in self._libraries:
            self.start_network()

    def start_network(self) -> Thread:
        """Spawn the network driver thread."""
        netstack = self.lib("netstack")
        body = netstack.make_rx_loop()
        return self.spawn("netstack-rx", body, netstack)

    def spawn(
        self,
        name: str,
        body_factory: Callable[[], Generator],
        library: MicroLibrary,
    ) -> Thread:
        """Create a thread homed in ``library``'s compartment."""
        return self.scheduler.spawn(name, body_factory, library.compartment)

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_switches: int | None = None,
    ) -> int:
        """Run the scheduler inside its compartment's context."""
        context = self.scheduler.compartment.make_context(label="sched:run")
        self.machine.cpu.push_context(context)
        try:
            return self.scheduler.run(until=until, max_switches=max_switches)
        finally:
            self.machine.cpu.pop_context()

    def call(self, lib_name: str, fn: str, *args: Any) -> Any:
        """Host-side call into a library export, in its own context.

        Used by workload harnesses for control operations (``stop``,
        ``net_stats``); regular inter-library traffic goes through
        gates instead.
        """
        library = self.lib(lib_name)
        handler = library.exports.get(fn)
        if handler is None:
            raise BuildError(f"{lib_name} has no export {fn!r}")
        context = library.compartment.make_context(label=f"host:{lib_name}.{fn}")
        self.machine.cpu.push_context(context)
        try:
            return handler(*args)
        finally:
            self.machine.cpu.pop_context()

    def shutdown(self) -> None:
        """Graceful teardown: stop drivers, destroy remaining threads.

        Optional — images are plain objects and can simply be dropped —
        but shutting down lets parked threads unwind their gate chains
        inside valid protection contexts instead of at garbage
        collection time.
        """
        if "netstack" in self._libraries:
            self.call("netstack", "stop")
            self.run(max_switches=10_000)
        self.scheduler.kill_all()

    # --- reporting ----------------------------------------------------------

    def layout(self) -> str:
        """Human-readable compartment layout."""
        lines = []
        for compartment in self.compartments:
            backend = (
                f"pkey={compartment.pkey}"
                if compartment.pkey is not None
                else (
                    f"vm={compartment.vm_domain.name}"
                    if compartment.vm_domain
                    else "flat"
                )
            )
            lines.append(
                f"compartment {compartment.index} ({backend}): "
                + ", ".join(compartment.library_names())
            )
        return "\n".join(lines)

    def stats(self) -> dict[str, float]:
        """CPU counters plus the clock."""
        return self.machine.cpu.snapshot()

    def memory_report(self) -> list[dict]:
        """Per-compartment memory accounting (diagnostics).

        One row per compartment: mapped private bytes, heap usage, and
        the (global) shared-heap usage.
        """
        rows = []
        for compartment in self.compartments:
            owned = sum(end - start for start, end in compartment.owned_ranges)
            allocator = compartment.allocator
            shared = compartment.shared_allocator
            rows.append(
                {
                    "compartment": compartment.name,
                    "owned_bytes": owned,
                    "heap_in_use": getattr(allocator, "bytes_in_use", 0),
                    "heap_live_blocks": getattr(allocator, "live_blocks", 0),
                    "shared_in_use": getattr(shared, "bytes_in_use", 0),
                }
            )
        return rows

    def metrics_snapshot(self) -> dict:
        """JSON-ready dump of every metric, stamped with the clock."""
        snapshot = self.machine.obs.metrics.snapshot()
        snapshot["clock_ns"] = self.machine.cpu.clock_ns
        return snapshot

    def crossing_matrix(self) -> dict[str, dict[str, int]]:
        """caller → callee → crossing counts from the metrics registry."""
        return self.machine.obs.metrics.crossing_matrix()
