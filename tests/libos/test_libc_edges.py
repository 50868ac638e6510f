"""LibC edge cases not covered by the main suite."""

import pytest

from repro import BuildConfig, build_image
from repro.machine.faults import GateError


@pytest.fixture
def image():
    return build_image(
        BuildConfig(
            libraries=["libc"],
            compartments=[["sched", "alloc", "libc"]],
            backend="none",
        )
    )


def test_memcmp_zero_length(image):
    assert image.call("libc", "memcmp", 0x1000, 0x2000, 0) == 0


def test_memcmp_negative_length_moves_nothing(image):
    """A negative length is refused before either range is read, as
    ``memcpy`` and ``memset`` refuse it: the clock and the load counts
    stay where they were."""
    machine = image.machine
    addr = image.call("alloc", "malloc", 64)
    before = (machine.cpu.clock_ns, machine.loads, machine.load_bytes)
    with pytest.raises(ValueError, match="non-negative"):
        image.call("libc", "memcmp", addr, addr, -100_000)
    assert (machine.cpu.clock_ns, machine.loads, machine.load_bytes) == before


def test_strlen_without_terminator(image):
    libc = image.lib("libc")
    libc.STRLEN_LIMIT = 64  # keep the scan short for the test
    addr = image.call("alloc", "malloc", 256)
    context = image.compartment_of("libc").make_context()
    image.machine.cpu.push_context(context)
    try:
        image.machine.store(addr, b"\x01" * 256)
        with pytest.raises(GateError, match="no terminator"):
            libc.strlen(addr)
    finally:
        image.machine.cpu.pop_context()
        type(libc).STRLEN_LIMIT = 1 << 20  # restore the class default


def test_sem_p_on_unknown_semaphore(image):
    libc = image.lib("libc")
    errors = []

    def body():
        try:
            yield from libc.sem_p(42)
        except GateError as error:
            errors.append(error)

    image.spawn("t", body, libc)
    image.run()
    assert len(errors) == 1


def test_sem_p_timeout_unknown_semaphore(image):
    libc = image.lib("libc")

    def body():
        yield from libc.sem_p_timeout(42, 1e9)

    image.spawn("t", body, libc)
    with pytest.raises(GateError):
        image.run()


def test_memcpy_charges_scale_with_size(image):
    libc = image.lib("libc")
    src = image.call("alloc", "malloc", 4096)
    dst = image.call("alloc", "malloc", 4096)
    context = image.compartment_of("libc").make_context()
    machine = image.machine
    machine.cpu.push_context(context)
    try:
        start = machine.cpu.clock_ns
        libc.memcpy(dst, src, 64)
        small = machine.cpu.clock_ns - start
        start = machine.cpu.clock_ns
        libc.memcpy(dst, src, 4096)
        large = machine.cpu.clock_ns - start
        assert large > small * 10
    finally:
        machine.cpu.pop_context()
