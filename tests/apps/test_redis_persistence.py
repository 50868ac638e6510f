"""Redis persistence (RDB-style dump) over the vfs micro-library."""

import pytest

from repro import BuildConfig, build_image
from repro.apps import start_redis
from repro.apps.resp import encode_command
from repro.apps.workload import run_redis_phase


def build(backend="none", groups=None):
    groups = groups or [
        ["netstack"],
        ["vfs"],
        ["sched", "alloc", "libc", "redis"],
    ]
    return build_image(
        BuildConfig(
            libraries=["libc", "netstack", "vfs", "redis"],
            compartments=groups,
            backend=backend,
        )
    )


def populate(image, entries):
    start_redis(image)
    payloads = [encode_command(b"SET", key, value) for key, value in entries]
    run_redis_phase(image, payloads, window=4, expect_prefix=b"+OK")


@pytest.mark.parametrize("backend", ["none", "mpk-shared"])
def test_save_load_roundtrip(backend):
    entries = [
        (b"alpha", b"first value"),
        (b"beta", b""),
        (b"gamma", bytes(range(1, 200))),
    ]
    image = build(backend)
    populate(image, entries)
    assert image.call("redis", "save", "/dump.rdb") == 3
    assert image.call("vfs", "stat", "/dump.rdb")["size"] > 0

    # A fresh image restores the exact store from the file content —
    # transplant the dump by copying the simulated file bytes.
    dump_fd = image.call("vfs", "open", "/dump.rdb")
    size = image.call("vfs", "fstat", dump_fd)["size"]
    staging = image.call("alloc", "malloc_shared", max(64, size))
    image.call("vfs", "read", dump_fd, staging, size)
    space = image.compartment_of("vfs").address_space
    dump_bytes = image.machine.dma_read(space, staging, size)

    fresh = build(backend)
    staging2 = fresh.call("alloc", "malloc_shared", max(64, size))
    space2 = fresh.compartment_of("vfs").address_space
    fresh.machine.dma_write(space2, staging2, dump_bytes)
    from repro.libos.fs.ramfs import O_CREAT, O_WRONLY

    fd = fresh.call("vfs", "open", "/dump.rdb", O_WRONLY | O_CREAT)
    fresh.call("vfs", "write", fd, staging2, size)
    fresh.call("vfs", "close", fd)
    start_redis(fresh)
    assert fresh.call("redis", "load", "/dump.rdb") == 3
    assert fresh.call("redis", "dbsize") == 3
    app = fresh.lib("redis")
    for key, value in entries:
        assert app.value_of(key) == value


def test_load_overwrites_existing_keys():
    image = build()
    populate(image, [(b"k", b"old")])
    image.call("redis", "save", "/snap")
    populate(image, [(b"k", b"newer-value")])
    assert image.lib("redis").value_of(b"k") == b"newer-value"
    assert image.call("redis", "load", "/snap") == 1
    assert image.lib("redis").value_of(b"k") == b"old"
    assert image.call("redis", "dbsize") == 1


def test_save_empty_store():
    image = build()
    start_redis(image)
    assert image.call("redis", "save", "/empty") == 0
    assert image.call("redis", "load", "/empty") == 0


def test_persistence_crosses_isolation_boundaries():
    """redis → vfs is a gated MPK crossing; blocks stay vfs-private."""
    image = build("mpk-shared")
    populate(image, [(b"secret", b"file-system-held")])
    image.call("redis", "save", "/d")
    from repro.machine.faults import ProtectionFault

    # The file's blocks live in the vfs compartment's private heap:
    # redis cannot read them directly, only through the API.
    vfs = image.lib("vfs")
    block = vfs._inodes["/d"].blocks[0]
    image.machine.cpu.push_context(
        image.compartment_of("redis").make_context("redis")
    )
    try:
        with pytest.raises(ProtectionFault):
            image.machine.load(block, 16)
    finally:
        image.machine.cpu.pop_context()
