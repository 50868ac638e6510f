"""Metadata inference from execution traces (paper §5 exploration)."""

import pytest

from repro.apps import run_iperf
from repro.core.inference import MetadataRecorder, profiling_image
from repro.core.metadata import Region


@pytest.fixture(scope="module")
def profiled():
    image, recorder = profiling_image(["libc", "netstack", "iperf"])
    run_iperf(image, 1024, 1 << 17)
    return image, recorder


def test_profiling_image_isolates_each_library():
    image, recorder = profiling_image(["libc"])
    # One substantive library per compartment (allocator replicas are
    # infrastructure and live everywhere).
    for compartment in image.compartments:
        substantive = [
            n for n in compartment.library_names() if n != "alloc"
        ]
        assert len(substantive) <= 1


def test_observed_memory_regions(profiled):
    _, recorder = profiled
    libc = recorder.observed("libc")
    # memcpy moves shared-heap data: shared reads and writes observed.
    assert Region.SHARED in libc.reads
    assert Region.SHARED in libc.writes
    netstack = recorder.observed("netstack")
    # header parses + TCB updates: own memory; mbufs: shared.
    assert Region.OWN in netstack.reads
    assert Region.OWN in netstack.writes
    assert netstack.access_count > 0


def test_no_foreign_accesses_in_clean_run(profiled):
    """A healthy workload touches only Own+Shared — never ALL."""
    _, recorder = profiled
    for name in ("libc", "netstack", "iperf"):
        observation = recorder.observed(name)
        assert Region.ALL not in observation.reads
        assert Region.ALL not in observation.writes


def test_observed_call_graph(profiled):
    _, recorder = profiled
    netstack = recorder.observed("netstack")
    assert "libc::memcpy" in netstack.calls
    assert "libc::sem_v" in netstack.calls
    iperf = recorder.observed("iperf")
    assert "netstack::recv" in iperf.calls
    assert "netstack::listen" in iperf.calls
    # Entry points observed on the callee side.
    assert "recv" in recorder.observed("netstack").entry_points


def test_inferred_spec_shape(profiled):
    _, recorder = profiled
    spec = recorder.observed("netstack").spec()
    assert spec.name == "netstack"
    assert not spec.calls_anything  # calls are concrete
    assert spec.calls_into("libc")
    facts = recorder.observed("netstack").behavior_facts()
    assert "libc::memcpy" in facts["calls"]
    assert "Own" in facts["writes"]


def test_validation_flags_overapproximation(profiled):
    _, recorder = profiled
    findings = recorder.validate_declared("netstack")
    severities = {finding.severity for finding in findings}
    # The netstack declares Write(*) / Call * conservatively; the trace
    # shows bounded behaviour -> review notes, no errors.
    assert "error" not in severities
    assert any("Write(*)" in str(f) for f in findings)
    assert any("Call *" in str(f) for f in findings)


def test_validation_catches_undeclared_behavior():
    """A library whose declared metadata is narrower than reality."""
    image, recorder = profiling_image(["libc", "mq"])
    # mq declares calls only into libc; patch its declared SPEC to omit
    # sem_v and confirm the validator notices the observed call.
    mq = image.lib("mq")
    mq.SPEC = """
    [Memory access] Read(Own); Write(Own)
    [Call] libc::sem_new
    """
    qid = image.call("mq", "q_new", 2)
    libc = image.lib("libc")

    def body():
        stub = libc.stub("mq")
        yield from stub.call_gen("q_push", qid, 0x1000, 4)
        yield from stub.call_gen("q_pop", qid)

    image.spawn("worker", body, libc)
    image.run(max_switches=100)
    findings = recorder.validate_declared("mq")
    errors = [f for f in findings if f.severity == "error"]
    assert any("libc::sem_v" in f.detail for f in errors)
    assert any("libc::sem_p" in f.detail for f in errors)


def test_observed_unknown_library_is_empty(profiled):
    _, recorder = profiled
    ghost = recorder.observed("ghost")
    assert ghost.access_count == 0
    assert ghost.spec().reads == frozenset({Region.OWN})


def test_attach_is_idempotent(profiled):
    image, recorder = profiled
    monitors_before = len(image.compartments[0].profile.monitors)
    recorder.attach()
    assert len(image.compartments[0].profile.monitors) == monitors_before


def test_inferred_facts_feed_the_explorer(profiled):
    """End-to-end §5 workflow: trace → facts → deployment enumeration."""
    from repro.core.hardening import LibraryDef, iter_deployments
    from repro.core.spec_parser import parse_spec

    image, recorder = profiled
    libdefs = []
    for name in ("libc", "netstack", "iperf"):
        instance = image.lib(name)
        libdefs.append(
            LibraryDef(
                name=name,
                spec=parse_spec(name, instance.SPEC),
                true_behavior=recorder.observed(name).behavior_facts(),
            )
        )
    deployments = list(iter_deployments(libdefs))
    assert len(deployments) >= 2
    # With traced facts, a fully-hardened combination exists in which
    # everything may share one compartment (no Requires among these).
    assert min(d.num_compartments for d in deployments) == 1


# --- declared metadata against every world family -----------------------------

#: One profiling image per world family, each driven through the
#: inference CLI's own load (``tools/infer._exercise``).  The cluster's
#: shard image links the durable family's libraries; its follower
#: applies journals through a host-side ``image.call``, which is not a
#: declared call, so the cluster adds no family of its own.
FAMILIES = {
    "fig3-iperf": ["libc", "netstack", "iperf"],
    "volatile-redis": ["libc", "netstack", "redis"],
    "durable-redis": ["libc", "netstack", "blk", "kv", "redis"],
    "httpd": ["libc", "netstack", "vfs", "httpd"],
    "time": ["libc", "time"],
    "mq": ["libc", "mq"],
}

#: ``(library, "callee::fn")`` → why the declared call stays although
#: no family makes it.
UNREACHED_CALLS: dict[tuple[str, str], str] = {}


@pytest.fixture(scope="module")
def families():
    from repro.tools.infer import _exercise

    runs = {}
    for family, libraries in FAMILIES.items():
        image, recorder = profiling_image(libraries)
        _exercise(image)
        runs[family] = (image, recorder)
    return runs


@pytest.mark.parametrize("family", FAMILIES)
def test_declared_metadata_matches_every_world(families, family):
    """No library's declared spec is narrower than what its family
    does, and each concrete ``[Call]`` entry is made by some family."""
    from repro.core.spec_parser import parse_spec

    image, recorder = families[family]
    made: dict[str, set[str]] = {}
    for _, other in families.values():
        for name, observation in other.observations.items():
            made.setdefault(name, set()).update(observation.calls)
    for name in image.config.all_libraries():
        errors = [
            str(finding)
            for finding in recorder.validate_declared(name)
            if finding.severity == "error"
        ]
        assert errors == [], family
        declared = parse_spec(name, image.lib(name).SPEC).calls
        unreached = {
            call
            for call in declared or ()
            if call not in made.get(name, set())
            and (name, call) not in UNREACHED_CALLS
        }
        assert unreached == set(), name
