"""Fault injection: isolation and hardening guarantees actually hold.

These tests play the adversary: a hijacked component attempts the
memory accesses and control transfers its FlexOS spec says it might
attempt in adversarial operation, and the selected mechanism must stop
it — MPK pkeys, EPT non-mapping, ASAN/DFI/CFI checks — while the same
attack *succeeds* in the no-isolation baseline (that's the trade-off
the whole paper is about).
"""

import pytest

from repro import BuildConfig, build_image
from repro.machine.faults import PageFault, ProtectionFault, SHViolation

LIBS = ["libc", "netstack", "iperf"]
GROUPS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]


def build(backend, hardening=None):
    return build_image(
        BuildConfig(
            libraries=LIBS,
            compartments=GROUPS,
            backend=backend,
            hardening=hardening or {},
        )
    )


def hijacked_netstack_writes(image, victim_addr):
    """Simulate a hijacked netstack storing to a foreign address."""
    context = image.compartment_of("netstack").make_context("hijacked")
    machine = image.machine
    machine.cpu.push_context(context)
    try:
        machine.store(victim_addr, b"pwned---")
    finally:
        machine.cpu.pop_context()


def scheduler_secret(image):
    """A private scheduler-compartment allocation holding 'secrets'."""
    compartment = image.compartment_of("sched")
    addr = compartment.alloc_region(64)
    machine = image.machine
    machine.cpu.push_context(compartment.make_context("sched"))
    machine.store(addr, b"PKRU table")
    machine.cpu.pop_context()
    return addr


def test_no_isolation_attack_succeeds():
    """Baseline: nothing stops a wild write (maximum performance,
    no protection — the SASOS corner of Figure 1)."""
    image = build("none")
    victim = scheduler_secret(image)
    hijacked_netstack_writes(image, victim)  # no fault
    machine = image.machine
    space = image.compartment_of("sched").address_space
    assert machine.dma_read(space, victim, 8) == b"pwned---"


@pytest.mark.parametrize("backend", ["mpk-shared", "mpk-switched"])
def test_mpk_blocks_cross_compartment_write(backend):
    image = build(backend)
    victim = scheduler_secret(image)
    with pytest.raises(ProtectionFault) as info:
        hijacked_netstack_writes(image, victim)
    assert info.value.pkey == image.compartment_of("sched").pkey
    # The secret is intact.
    space = image.compartment_of("sched").address_space
    assert image.machine.dma_read(space, victim, 10) == b"PKRU table"


@pytest.mark.parametrize("backend", ["mpk-shared", "mpk-switched"])
def test_mpk_blocks_cross_compartment_read(backend):
    image = build(backend)
    victim = scheduler_secret(image)
    context = image.compartment_of("netstack").make_context("snooper")
    image.machine.cpu.push_context(context)
    try:
        with pytest.raises(ProtectionFault):
            image.machine.load(victim, 8)
    finally:
        image.machine.cpu.pop_context()


def test_mpk_allows_shared_area_writes():
    image = build("mpk-shared")
    shared = image.call("alloc", "malloc_shared", 64)
    hijacked_netstack_writes(image, shared)  # legal: shared domain
    space = image.compartment_of("netstack").address_space
    assert image.machine.dma_read(space, shared, 8) == b"pwned---"


def test_vm_backend_foreign_memory_unreachable():
    """Under EPT the victim's memory cannot be named at all: the same
    virtual address either is unmapped in the attacker's VM (page
    fault) or refers to the attacker's *own* private page — either way
    the victim's bytes are untouched."""
    image = build("vm-rpc")
    victim = scheduler_secret(image)
    try:
        hijacked_netstack_writes(image, victim)
    except PageFault:
        pass  # the address is simply not mapped in the attacker's VM
    sched_space = image.compartment_of("sched").address_space
    assert image.machine.dma_read(sched_space, victim, 10) == b"PKRU table"


def test_shared_vs_switched_stack_exposure():
    """The ERIM-vs-HODOR trade-off: under shared stacks any compartment
    can write any thread's stack; switched stacks close that channel."""
    shared_image = build("mpk-shared")
    switched_image = build("mpk-switched")
    for image, expect_fault in ((shared_image, False), (switched_image, True)):
        # A thread homed in the rest compartment.
        thread = image.scheduler.spawn(
            "victim", lambda: iter(()), image.compartment_of("libc")
        )
        if expect_fault:
            with pytest.raises(ProtectionFault):
                hijacked_netstack_writes(image, thread.stack_base)
        else:
            hijacked_netstack_writes(image, thread.stack_base)


def test_asan_contains_netstack_heap_overflow():
    """SH instead of hardware isolation: same attack, caught by ASAN."""
    image = build("none", hardening={"netstack": ("asan",)})
    netstack_comp = image.compartment_of("netstack")
    buffer_addr = netstack_comp.allocator.malloc(64)
    context = netstack_comp.make_context("overflowing")
    image.machine.cpu.push_context(context)
    try:
        image.machine.store(buffer_addr, b"A" * 64)  # in bounds: fine
        with pytest.raises(SHViolation, match="asan"):
            image.machine.store(buffer_addr, b"A" * 80)  # overflow
    finally:
        image.machine.cpu.pop_context()


def test_dfi_contains_wild_write_without_mpk():
    image = build("none", hardening={"netstack": ("dfi",)})
    victim = scheduler_secret(image)
    with pytest.raises(SHViolation, match="dfi"):
        hijacked_netstack_writes(image, victim)


def test_cfi_stops_rogue_control_transfer():
    image = build("none", hardening={"netstack": ("cfi",)})
    netstack = image.lib("netstack")
    context = image.compartment_of("netstack").make_context("rogue")
    image.machine.cpu.push_context(context)
    try:
        # sched::thread_rm is not in the netstack's analysed call graph.
        with pytest.raises(SHViolation, match="cfi"):
            netstack.stub("sched").call("thread_rm", 1)
    finally:
        image.machine.cpu.pop_context()


def test_cfi_checks_every_batched_op():
    """A queue edge batches calls into one doorbell crossing, but CFI
    still checks each op's target, once, before it can run: the rogue
    op fails at submission, the legitimate op before it still runs, and
    the callee is not blamed."""
    image = build_image(
        BuildConfig(
            libraries=LIBS,
            compartments=GROUPS,
            backend="mpk-shared",
            hardening={"netstack": ("cfi",)},
            queue_edges={"netstack->libc": "batch:8"},
        )
    )
    machine = image.machine
    libc_comp = image.compartment_of("libc")
    buf = libc_comp.alloc_region(4096)
    libc = image.lib("netstack").stub("libc")
    machine.cpu.push_context(image.compartment_of("netstack").make_context("rogue"))
    try:
        # libc::memset is not in the netstack's analysed call graph.
        with pytest.raises(SHViolation, match="cfi"):
            libc.call("memset", buf, 0xAA, 8)
        checks = machine.cpu.metrics.counters["cfi_checks"]
        libc.submit("memcpy", buf + 64, buf, 8)
        with pytest.raises(SHViolation, match="cfi"):
            libc.submit("memset", buf, 0xAA, 8)
        assert libc.flush() == 1
        assert [c.fn for c in libc.poll() if c.ok] == ["memcpy"]
    finally:
        machine.cpu.pop_context()
    assert machine.cpu.metrics.counters["cfi_checks"] == checks + 2
    assert machine.dma_read(libc_comp.address_space, buf, 8) == bytes(8)
    assert not libc_comp.failed


@pytest.mark.parametrize("backend", ["none", "mpk-shared"])
def test_cfi_hardened_httpd_serves_every_get(backend):
    """httpd's analysed call graph is its declared call list, so CFI
    passes every call a GET makes (``vfs::fstat`` included)."""
    from repro.apps import populate_files, run_closed_loop, start_httpd

    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "vfs", "httpd"],
            compartments=[["netstack"], ["vfs"], ["sched", "alloc", "libc", "httpd"]],
            backend=backend,
            hardening={"httpd": ("cfi",)},
        )
    )
    populate_files(image, {"/index.html": b"<html>hello flexos</html>"})
    app = start_httpd(image)
    run_closed_loop(image, app.PORT, [b"GET /index.html\n"] * 20)
    assert image.call("httpd", "httpd_stats")["hits"] == 20


def test_gates_only_expose_declared_entry_points():
    """'Code execution starts only at well-defined entry points.'"""
    from repro.machine.faults import GateError

    image = build("mpk-shared")
    iperf = image.lib("iperf")
    context = image.compartment_of("iperf").make_context("app")
    image.machine.cpu.push_context(context)
    try:
        with pytest.raises(GateError):
            iperf.stub("netstack").call("_mbuf_get")
        with pytest.raises(GateError):
            iperf.stub("sched").call("run")
    finally:
        image.machine.cpu.pop_context()


def test_workload_is_unaffected_by_isolation_choice():
    """Functional equivalence across every backend: identical bytes
    delivered, identical application results — only time differs."""
    from repro.apps import run_iperf

    checksums = set()
    for backend in ("none", "mpk-shared", "mpk-switched", "vm-rpc"):
        image = build(backend)
        result = run_iperf(image, 1024, 100_000)
        app = image.lib("iperf")
        checksums.add((app.received, app.done))
    assert checksums == {(100_000, True)}
