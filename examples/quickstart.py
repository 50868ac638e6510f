#!/usr/bin/env python3
"""Quickstart: the paper's §2 worked example, end to end.

1. Write FlexOS metadata for two components — a verified scheduler and
   an unsafe C library — in the paper's DSL.
2. Let the compatibility analysis decide whether they may share a
   compartment (they may not).
3. Apply the SH metadata transformations: the hardened variant of the
   unsafe library *can* co-locate; graph coloring shrinks the image to
   one compartment.
4. Build and run an actual image under MPK isolation and watch a
   hijacked component get stopped by the protection keys.

Run:  python examples/quickstart.py
"""

from repro import BuildConfig, build_image
from repro.core import (
    can_share,
    explain_conflict,
    iter_deployments,
    parse_spec,
)
from repro.core.hardening import LibraryDef
from repro.machine.faults import ProtectionFault

# --- 1. Metadata in the paper's DSL ------------------------------------------

SCHEDULER_SPEC = parse_spec(
    "sched",
    """
    [Memory access] Read(Own,Shared); Write(Own,Shared)
    [Call] alloc::malloc, alloc::free
    [API] thread_add(); thread_rm(); yield_()
    [Requires] *(Read,Own), *(Write,Shared), *(Call, thread_add), \
*(Call, thread_rm), *(Call, yield_)
    """,
)

UNSAFE_SPEC = parse_spec(
    "unsafe_c",
    """
    [Memory access] Read(*); Write(*)
    [Call] *
    """,
)

print("=== The scheduler's metadata ===")
print(SCHEDULER_SPEC.describe())
print()
print("=== The unsafe C component's metadata ===")
print(UNSAFE_SPEC.describe())

# --- 2. Pairwise compatibility ---------------------------------------------------

print("\n=== Can they share a compartment? ===")
print("can_share:", can_share(SCHEDULER_SPEC, UNSAFE_SPEC))
for violation in explain_conflict(SCHEDULER_SPEC, UNSAFE_SPEC):
    print("  -", violation)

# --- 3. SH transformations + coloring ----------------------------------------------

print("\n=== Enumerating deployments (SH variants × coloring) ===")
libdefs = [
    LibraryDef(name="sched", spec=SCHEDULER_SPEC),
    LibraryDef(
        name="unsafe_c",
        spec=UNSAFE_SPEC,
        true_behavior={
            "writes": ["Own", "Shared"],
            "reads": ["Own", "Shared"],
            "calls": ["sched::thread_add", "alloc::malloc"],
        },
    ),
]
for deployment in iter_deployments(libdefs):
    print(
        f"  {deployment.num_compartments} compartment(s):",
        deployment.describe(),
    )

# --- 4. Build a real image and attack it ---------------------------------------------

print("\n=== Building an MPK image: untrusted netstack isolated ===")
config = BuildConfig(
    libraries=["libc", "netstack", "iperf"],
    compartments=[["netstack"], ["sched", "alloc", "libc", "iperf"]],
    backend="mpk-shared",
)
image = build_image(config)
print(image.layout())

print("\n=== A hijacked netstack attacks the scheduler's memory ===")
victim = image.compartment_of("sched").alloc_region(64)
machine = image.machine
machine.cpu.push_context(image.compartment_of("sched").make_context())
machine.store(victim, b"scheduler state")
machine.cpu.pop_context()

machine.cpu.push_context(image.compartment_of("netstack").make_context("hijacked"))
try:
    machine.store(victim, b"pwned")
    print("!!! attack succeeded — this should not happen under MPK")
except ProtectionFault as fault:
    print(f"attack stopped by MPK: {fault}")
finally:
    machine.cpu.pop_context()

print("\n=== Same image still serves real traffic ===")
from repro.apps import run_iperf  # noqa: E402

result = run_iperf(image, buffer_size=4096, total_bytes=1 << 20)
print(
    f"iperf: {result.throughput_mbps:.0f} Mb/s simulated "
    f"({result.elapsed_ns / 1e6:.2f} simulated ms for 1 MiB)"
)
