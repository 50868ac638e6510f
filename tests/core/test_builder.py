"""The builder: protection domains, heaps, wiring, hardening, boot."""

import collections

import pytest

from repro import BuildConfig, build_image
from repro.apps.workload import start_redis
from repro.cluster.cluster import RedisCluster
from repro.core.builder import auto_compartments, library_defs
from repro.core.config import SHARED_PKEY, STACK_PKEY
from repro.core.errors import BuildError
from repro.gates.funccall import DirectChannel, ProfileChannel
from repro.gates.mpk_shared import MPKSharedStackGate
from repro.gates.vm_rpc import VMRPCGate
from repro.libos.blk.blkdev import DiskMedium
from repro.machine.address_space import AddressSpace
from repro.machine.mpk import pkru_writable

LIBS = ["libc", "netstack", "iperf"]
GROUPS = [["netstack"], ["sched", "alloc", "libc", "iperf"]]


def test_flat_image_layout():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=[sum(GROUPS, [])], backend="none")
    )
    assert len(image.compartments) == 1
    assert image.compartments[0].pkey is None
    layout = image.layout()
    assert "netstack" in layout and "flat" in layout


def test_mpk_image_assigns_keys_and_pkru():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="mpk-shared")
    )
    net_comp = image.compartment_of("netstack")
    rest_comp = image.compartment_of("libc")
    assert net_comp.pkey != rest_comp.pkey
    # Each compartment may write its own key and the shared key only.
    assert pkru_writable(net_comp.pkru_value, net_comp.pkey)
    assert pkru_writable(net_comp.pkru_value, SHARED_PKEY)
    assert not pkru_writable(net_comp.pkru_value, rest_comp.pkey)
    # Shared-stack backend: stacks live in the common stack domain.
    assert net_comp.stack_pkey == STACK_PKEY
    assert pkru_writable(net_comp.pkru_value, STACK_PKEY)


def test_mpk_switched_uses_private_stacks():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="mpk-switched")
    )
    net_comp = image.compartment_of("netstack")
    assert net_comp.stack_pkey is None  # stacks carry the comp's key
    assert not pkru_writable(net_comp.pkru_value, STACK_PKEY)


def test_vm_image_has_disjoint_domains():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="vm-rpc")
    )
    domains = {c.vm_domain.name for c in image.compartments}
    assert len(domains) == 2
    spaces = {c.address_space for c in image.compartments}
    assert len(spaces) == 2


def test_gate_kinds_match_backend():
    cases = {
        "none": ProfileChannel,
        "mpk-shared": MPKSharedStackGate,
        "vm-rpc": VMRPCGate,
    }
    for backend, gate_cls in cases.items():
        image = build_image(
            BuildConfig(libraries=LIBS, compartments=GROUPS, backend=backend)
        )
        stub = image.lib("iperf").stub("netstack")
        assert isinstance(stub._channel, gate_cls)
        # Same-compartment edges are always direct.
        stub_local = image.lib("iperf").stub("libc")
        assert isinstance(stub_local._channel, DirectChannel)


def test_libc_replicated_per_vm():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="vm-rpc")
    )
    netstack = image.lib("netstack")
    # The netstack's libc stub resolves to a replica in its own VM.
    channel = netstack.stub("libc")._channel
    assert isinstance(channel, DirectChannel)
    assert channel.callee_lib.compartment is netstack.compartment


def test_sched_is_vm_local():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="vm-rpc")
    )
    channel = image.lib("netstack").stub("sched")._channel
    assert isinstance(channel, DirectChannel)


def test_scheduler_domain_crossing_configured():
    by_backend = {}
    for backend in ("none", "mpk-shared", "mpk-switched", "vm-rpc"):
        image = build_image(
            BuildConfig(libraries=LIBS, compartments=GROUPS, backend=backend)
        )
        by_backend[backend] = image.scheduler.domain_crossing_ns
    assert by_backend["none"] == 0
    assert by_backend["vm-rpc"] == 0
    assert 0 < by_backend["mpk-shared"] < by_backend["mpk-switched"]


def test_global_allocator_is_shared_instance():
    image = build_image(
        BuildConfig(
            libraries=LIBS,
            compartments=GROUPS,
            backend="none",
            allocator_policy="global",
        )
    )
    allocators = {id(c.allocator) for c in image.compartments}
    assert len(allocators) == 1


def test_per_compartment_allocators_are_distinct():
    image = build_image(
        BuildConfig(libraries=LIBS, compartments=GROUPS, backend="mpk-shared")
    )
    allocators = {id(c.allocator) for c in image.compartments}
    assert len(allocators) == len(image.compartments)


def test_unknown_library_rejected():
    with pytest.raises(BuildError, match="unknown library"):
        build_image(BuildConfig(libraries=["warpdrive"]))


def test_library_defs_parse_all():
    config = BuildConfig(libraries=LIBS)
    defs = library_defs(config)
    names = {d.name for d in defs}
    assert names == {"libc", "netstack", "iperf", "sched", "alloc"}


def test_auto_compartments_isolate_unsafe_libs():
    config = BuildConfig(libraries=LIBS)
    groups = auto_compartments(config)
    by_lib = {lib: i for i, group in enumerate(groups) for lib in group}
    # Unhardened netstack/libc (Write *) cannot share with sched/alloc.
    assert by_lib["netstack"] != by_lib["sched"]
    assert by_lib["libc"] != by_lib["sched"]
    assert by_lib["netstack"] != by_lib["alloc"]
    # netstack and libc are mutually tolerant (no Requires).
    assert by_lib["netstack"] == by_lib["libc"]


def test_auto_compartments_with_hardening_merge():
    config = BuildConfig(
        libraries=["libc"],
        hardening={"libc": ("asan", "cfi")},
    )
    groups = auto_compartments(config)
    # The hardened libc's narrowed spec co-locates with sched/alloc.
    assert len(groups) == 1


def test_auto_build_end_to_end():
    image = build_image(BuildConfig(libraries=LIBS, backend="mpk-shared"))
    assert image.has_lib("netstack")
    from repro.apps import run_iperf

    result = run_iperf(image, 1024, 1 << 17)
    assert result.throughput_mbps > 0


def test_double_boot_rejected():
    image = build_image(BuildConfig(libraries=["libc"]))
    with pytest.raises(BuildError, match="already booted"):
        image.boot()


def test_image_call_unknown_export():
    image = build_image(BuildConfig(libraries=["libc"]))
    with pytest.raises(BuildError, match="no export"):
        image.call("libc", "launch_missiles")
    with pytest.raises(BuildError, match="no library"):
        image.call("ghost", "anything")


def test_image_stats_and_clock():
    image = build_image(BuildConfig(libraries=["libc"]))
    stats = image.stats()
    assert "clock_ns" in stats
    assert image.clock_ns == stats["clock_ns"]


def _iperf_images(backend):
    return lambda: [
        build_image(BuildConfig(libraries=LIBS, compartments=GROUPS, backend=backend))
    ]


def _durable_redis_image():
    image = build_image(
        BuildConfig(
            libraries=["libc", "netstack", "blk", "kv", "redis"],
            compartments=[
                ["netstack"],
                ["blk", "kv"],
                ["sched", "alloc", "libc", "redis"],
            ],
            backend="mpk-switched",
        )
    )
    image.lib("blk").attach_medium(DiskMedium())
    start_redis(image)
    return [image]


def _cluster_shard_images():
    return RedisCluster(shards=("s0",), backend="none", replicate=True).images()


@pytest.mark.parametrize(
    "build",
    [
        _iperf_images("mpk-shared"),
        _iperf_images("vm-rpc"),
        _durable_redis_image,
        _cluster_shard_images,
    ],
    ids=["iperf-mpk", "iperf-vm", "redis-durable", "cluster-shard"],
)
def test_page_tables_hold_at_most_one_extent_per_mapping(build, monkeypatch):
    """A page table grows with the mappings made, not the pages mapped:
    every address space holds no more extents than the ``map_frames``
    calls it served (``map_new`` maps through it), although the heaps
    alone span thousands of pages."""
    served = collections.Counter()
    map_frames = AddressSpace.map_frames

    def counted(space, *args, **kwargs):
        served[space] += 1
        return map_frames(space, *args, **kwargs)

    monkeypatch.setattr(AddressSpace, "map_frames", counted)
    images = build()
    spaces = [space for image in images for space in image.machine.spaces.values()]
    assert spaces
    for space in spaces:
        assert 0 < len(space._extents) <= served[space], space.name
        assert sum(end - start for start, end, *_ in space._extents) >= 1024
