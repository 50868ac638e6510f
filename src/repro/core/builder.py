"""The FlexOS builder: configuration → runnable image.

"Using this information, FlexOS's builder will generate the required
protection domains (one per compartment) and replace the call gate
placeholders with the relevant code.  For libraries in the same
compartment, it will replace the call gates with direct function
calls.  For inter-compartment crossings, it will use the appropriate
gate for switching protection domains." (§2)

Build pipeline:

1. resolve library classes from the registry;
2. decide the compartment grouping (explicit, or automatically via the
   metadata compatibility analysis + graph coloring);
3. create protection domains per backend (MPK keys in one address
   space / one VM per compartment / a flat domain);
4. carve heaps (shared area + per-compartment or global allocators);
5. instantiate and install libraries (replicating the allocator per
   compartment when required);
6. wire the linker: direct channels within a compartment, backend
   gates across;
7. apply per-compartment software hardening;
8. boot.
"""

from __future__ import annotations

from repro.core.compatibility import conflict_graph
from repro.core.coloring import color_classes, minimum_coloring
import dataclasses

from repro.core.config import (
    FIRST_COMPARTMENT_PKEY,
    SHARED_PKEY,
    STACK_PKEY,
    BuildConfig,
    parse_queue_policy,
)
from repro.core.errors import BuildError
from repro.core.hardening import LibraryDef, transform_spec
from repro.core.image import Image
from repro.core.spec_parser import parse_spec
from repro.gates.base import GateOptions
from repro.gates.registry import make_channel
from repro.libos.alloc.allocator import HeapAllocator
from repro.libos.alloc.liballoc import AllocLibrary
from repro.libos.blk.blkdev import BlockDeviceLibrary
from repro.libos.compartment import Compartment
from repro.libos.fs.ramfs import FileSystemLibrary
from repro.libos.kv.store import KVStoreLibrary
from repro.libos.library import Linker, MicroLibrary
from repro.libos.libc.libc import LibCLibrary
from repro.libos.mq.mq import MessageQueueLibrary
from repro.libos.net.stack import NetstackLibrary
from repro.libos.sched.coop import CoopScheduler
from repro.libos.time.uktime import TimeLibrary
from repro.libos.sched.verified import VerifiedScheduler
from repro.machine.machine import Machine
from repro.machine.mpk import pkru_for_keys

#: Library registry: config name → micro-library class.  Applications
#: add themselves via :func:`register_library` (see repro.apps).
LIBRARY_TYPES: dict[str, type[MicroLibrary]] = {
    "alloc": AllocLibrary,
    "blk": BlockDeviceLibrary,
    "kv": KVStoreLibrary,
    "libc": LibCLibrary,
    "mq": MessageQueueLibrary,
    "netstack": NetstackLibrary,
    "time": TimeLibrary,
    "vfs": FileSystemLibrary,
}


def register_library(name: str, library_cls: type[MicroLibrary]) -> None:
    """Register an application/library class under a config name."""
    LIBRARY_TYPES[name] = library_cls


def _ensure_apps_registered() -> None:
    """Import the bundled applications so they self-register."""
    import repro.apps  # noqa: F401  (import has registration side effect)


def _library_class(name: str, config: BuildConfig) -> type[MicroLibrary]:
    if name == "sched":
        return VerifiedScheduler if config.scheduler == "verified" else CoopScheduler
    library_cls = LIBRARY_TYPES.get(name)
    if library_cls is None:
        raise BuildError(
            f"unknown library {name!r}; known: "
            f"{sorted(LIBRARY_TYPES) + ['sched']}"
        )
    return library_cls


def library_defs(config: BuildConfig) -> list[LibraryDef]:
    """Parse every selected library's metadata into LibraryDefs."""
    _ensure_apps_registered()
    defs = []
    for name in config.all_libraries():
        library_cls = _library_class(name, config)
        if not library_cls.SPEC.strip():
            raise BuildError(f"library {name!r} has no FlexOS metadata")
        spec = parse_spec(name, library_cls.SPEC)
        defs.append(
            LibraryDef(
                name=name,
                spec=spec,
                true_behavior=dict(library_cls.TRUE_BEHAVIOR),
            )
        )
    return defs


def auto_compartments(config: BuildConfig) -> list[list[str]]:
    """Derive the compartment grouping from the libraries' metadata.

    Applies the configured SH techniques' spec transformations first —
    a hardened library may legally share a compartment it otherwise
    could not — then minimally colors the conflict graph.
    """
    defs = library_defs(config)
    specs = []
    for libdef in defs:
        techniques = tuple(config.hardening.get(libdef.name, ()))
        specs.append(transform_spec(libdef, techniques).with_requires(
            libdef.spec.requires
        ))
    nodes, edges = conflict_graph(specs)
    coloring = minimum_coloring(nodes, edges)
    return color_classes(coloring)


def build_image(config: BuildConfig) -> Image:
    """Build and boot a FlexOS image for ``config``."""
    _ensure_apps_registered()
    config.validate()
    machine = Machine(cost=config.cost, phys_bytes=config.phys_bytes)
    groups = (
        [list(group) for group in config.compartments]
        if config.compartments is not None
        else auto_compartments(config)
    )

    # --- protection domains -------------------------------------------------
    compartments: list[Compartment] = []
    mpk = config.backend in ("mpk-shared", "mpk-switched")
    if config.backend == "vm-rpc":
        for index, group in enumerate(groups):
            compartment = Compartment(index, "+".join(group), machine)
            domain = machine.new_vm_domain(f"comp{index}")
            compartment.vm_domain = domain
            compartment.address_space = domain.space
            compartments.append(compartment)
        shared_base = machine.map_shared_window(
            [c.vm_domain for c in compartments], config.shared_heap_size
        )
    else:
        space = machine.new_address_space("main")
        for index, group in enumerate(groups):
            compartment = Compartment(index, "+".join(group), machine)
            compartment.address_space = space
            if mpk:
                compartment.pkey = FIRST_COMPARTMENT_PKEY + index
                writable = {compartment.pkey, SHARED_PKEY}
                if config.backend == "mpk-shared":
                    compartment.stack_pkey = STACK_PKEY
                    writable.add(STACK_PKEY)
                compartment.pkru_value = pkru_for_keys(writable=writable)
            compartments.append(compartment)
        shared_base = space.map_new(
            config.shared_heap_size,
            pkey=SHARED_PKEY if mpk else 0,
        )

    shared_allocator = HeapAllocator(
        "heap:shared", machine, shared_base, config.shared_heap_size
    )
    shared_ranges = [(shared_base, shared_base + config.shared_heap_size)]

    # --- heaps -------------------------------------------------------------------
    if config.allocator_policy == "global":
        # One allocator for the entire system (only legal without
        # hardware isolation — validated by BuildConfig).
        heap_base = compartments[0].address_space.map_new(config.heap_size)
        global_heap = HeapAllocator("heap:global", machine, heap_base, config.heap_size)
        # The global heap is writable system-wide: write-set checks
        # (DFI) must treat it like the shared area.
        shared_ranges.append((heap_base, heap_base + config.heap_size))
        for compartment in compartments:
            compartment.allocator = global_heap
            compartment.shared_allocator = shared_allocator
    else:
        for compartment in compartments:
            heap_base = compartment.alloc_region(config.heap_size)
            compartment.allocator = HeapAllocator(
                f"heap:{compartment.name}", machine, heap_base, config.heap_size
            )
            compartment.shared_allocator = shared_allocator

    # --- libraries -----------------------------------------------------------------
    # Services replicated into every compartment instead of gated:
    # the allocator under the per-compartment policy, and — under the
    # VM backend — LibC as well ("images contain the minimum set of
    # micro-libraries necessary to run the VM independently", §3).
    replicated_services = set()
    if config.allocator_policy == "per-compartment":
        replicated_services.add("alloc")
    if config.backend == "vm-rpc":
        replicated_services.add("libc")

    linker = Linker()
    libraries: dict[str, MicroLibrary] = {}
    all_instances: list[MicroLibrary] = []
    for compartment, group in zip(compartments, groups):
        for name in group:
            if name in replicated_services:
                continue  # replicas created below
            library = _library_class(name, config)()
            library.install(machine, compartment, linker)
            libraries[name] = library
            all_instances.append(library)
    replicas: dict[str, dict[int, MicroLibrary]] = {}
    for service in sorted(replicated_services):
        per_comp: dict[int, MicroLibrary] = {}
        for compartment in compartments:
            replica = _library_class(service, config)()
            replica.install(machine, compartment, linker)
            per_comp[compartment.index] = replica
            all_instances.append(replica)
        replicas[service] = per_comp
        home = next(
            (c.index for c, group in zip(compartments, groups) if service in group),
            compartments[0].index,
        )
        libraries[service] = per_comp[home]

    # --- linking ----------------------------------------------------------------------
    gate_kind = {
        # Backend "none": no protection switch, but hardening profiles
        # still follow the callee's compartment (ProfileChannel).
        "none": "profile",
        "mpk-shared": "mpk-shared",
        "mpk-switched": "mpk-switched",
        "vm-rpc": "vm-rpc",
        "cheri": "cheri",
    }[config.backend]

    if config.backend == "cheri":
        # Capability backend: one address space, no pkeys; each
        # compartment's reach is defined by its capability set.
        from repro.machine.capabilities import base_capabilities

        for compartment in compartments:
            compartment.capabilities = base_capabilities(
                compartment, shared_ranges
            )
    options = GateOptions(
        clear_registers=config.clear_registers,
        # Auto-generated trust-boundary wrappers (paper §5): checks
        # included only where the call actually crosses a domain —
        # make_channel never wraps same-compartment direct channels.
        api_guards=config.api_guards,
        shared_ranges=tuple(shared_ranges),
    )

    # Group-scoped shared heaps (per-pair shared regions): queue
    # channels allocate their rings here; installed before linking so
    # member PKRU updates land before any thread context is created.
    from repro.libos.alloc.groupheap import GroupSharedHeaps

    machine.group_heaps = GroupSharedHeaps(
        machine, compartments=compartments, shared_ranges=shared_ranges
    )
    queue_batches = {
        edge: parse_queue_policy(policy)
        for edge, policy in config.queue_edges.items()
    }

    def connect(caller: MicroLibrary, service: str, target: MicroLibrary) -> None:
        kind = (
            "direct" if target.compartment is caller.compartment else gate_kind
        )
        if service == "sched" and config.backend == "vm-rpc":
            # Each VM runs its own scheduler instance (paper §3: VM
            # images contain their own scheduler), so scheduling
            # operations never cross a VM boundary.  The reproduction
            # keeps one run loop but makes its operations VM-local.
            kind = "direct"
        edge_options = options
        batch = queue_batches.get(f"{caller.NAME}->{service}")
        if batch is not None and kind != "direct":
            # Batched submission/completion rings over the backend
            # gate: one doorbell crossing per batch instead of one per
            # call.  Same-compartment edges stay direct — there is no
            # crossing to amortise.
            kind = f"queue:{kind}"
            edge_options = dataclasses.replace(options, queue_batch=batch)
        channel = make_channel(
            kind, machine, caller, target, options=edge_options
        )
        linker.connect(caller.NAME, service, channel)

    for caller in all_instances:
        for service, target in libraries.items():
            if service == caller.NAME:
                continue
            if service in replicated_services:
                # Resolve to the caller-local replica.
                connect(
                    caller, service, replicas[service][caller.compartment.index]
                )
            else:
                connect(caller, service, target)

    # --- software hardening ---------------------------------------------------------------
    from repro.sh.base import HardenContext
    from repro.sh.registry import make_hardener

    context = HardenContext(
        machine=machine, compartments=compartments, shared_ranges=shared_ranges
    )
    for compartment in compartments:
        techniques: list[str] = []
        for library in compartment.libraries:
            for technique in config.hardening.get(library.NAME, ()):
                if technique not in techniques:
                    techniques.append(technique)
        for technique in techniques:
            make_hardener(technique).apply(compartment, context)

    # --- failure policy ---------------------------------------------------------------------
    for compartment in compartments:
        compartment.failure_policy = config.failure_policy

    # --- image ------------------------------------------------------------------------------
    scheduler = libraries.get("sched")
    if scheduler is None:
        raise BuildError("image has no scheduler")  # pragma: no cover
    cost = machine.cost
    if config.backend == "mpk-shared":
        scheduler.domain_crossing_ns = cost.gate_dispatch_ns + cost.wrpkru_ns + (
            cost.reg_clear_ns if config.clear_registers else 0.0
        )
    elif config.backend == "mpk-switched":
        scheduler.domain_crossing_ns = (
            cost.gate_dispatch_ns
            + cost.wrpkru_ns
            + cost.stack_switch_ns
            + (cost.reg_clear_ns if config.clear_registers else 0.0)
        )
    elif config.backend == "cheri":
        scheduler.domain_crossing_ns = cost.cheri_crossing_ns
    # backend "none": no protection switch; "vm-rpc": each VM runs its
    # own scheduler, so switches never leave the VM.
    image = Image(
        machine=machine,
        config=config,
        compartments=compartments,
        linker=linker,
        libraries=libraries,
        all_instances=all_instances,
        scheduler=scheduler,
    )
    image.boot()
    return image
