"""Unit tests for build-configuration validation."""

import pytest

from repro.core.config import (
    ALLOC_POLICIES,
    BACKENDS,
    MAX_MPK_COMPARTMENTS,
    SCHEDULERS,
    BuildConfig,
)
from repro.core.errors import BuildError


def test_implicit_sched_and_alloc():
    config = BuildConfig(libraries=["libc"])
    names = config.all_libraries()
    assert "sched" in names and "alloc" in names and "libc" in names
    # Already-present implicits are not duplicated.
    config = BuildConfig(libraries=["sched", "libc"])
    assert config.all_libraries().count("sched") == 1


def test_valid_default_config():
    BuildConfig(libraries=["libc"]).validate()


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_valid(backend):
    BuildConfig(libraries=["libc"], backend=backend).validate()


def test_unknown_backend_rejected():
    with pytest.raises(BuildError, match="backend"):
        BuildConfig(libraries=["libc"], backend="tee").validate()


def test_unknown_policy_rejected():
    with pytest.raises(BuildError, match="allocator policy"):
        BuildConfig(libraries=["libc"], allocator_policy="arena").validate()


def test_unknown_scheduler_rejected():
    with pytest.raises(BuildError, match="scheduler"):
        BuildConfig(libraries=["libc"], scheduler="fifo").validate()


def test_global_allocator_requires_no_hw_isolation():
    with pytest.raises(BuildError, match="global allocator"):
        BuildConfig(
            libraries=["libc"],
            backend="mpk-shared",
            allocator_policy="global",
        ).validate()
    BuildConfig(
        libraries=["libc"], backend="none", allocator_policy="global"
    ).validate()


def test_heap_sizes_validated():
    with pytest.raises(BuildError, match="heap"):
        BuildConfig(libraries=["libc"], heap_size=0).validate()
    with pytest.raises(BuildError, match="heap"):
        BuildConfig(libraries=["libc"], shared_heap_size=-1).validate()


def test_compartment_grouping_must_cover_everything():
    with pytest.raises(BuildError, match="misses"):
        BuildConfig(
            libraries=["libc"], compartments=[["libc"]]
        ).validate()  # sched/alloc missing


def test_compartment_grouping_no_duplicates():
    with pytest.raises(BuildError, match="two compartments"):
        BuildConfig(
            libraries=["libc"],
            compartments=[["libc", "sched"], ["libc", "alloc"]],
        ).validate()


def test_compartment_grouping_no_strangers():
    with pytest.raises(BuildError, match="unknown"):
        BuildConfig(
            libraries=["libc"],
            compartments=[["libc", "sched", "alloc", "ghost"]],
        ).validate()


def test_mpk_key_budget_enforced():
    groups = [[f"lib{i}"] for i in range(MAX_MPK_COMPARTMENTS + 1)]
    config = BuildConfig(
        libraries=[lib for group in groups for lib in group],
        compartments=groups + [["sched", "alloc"]],
        backend="mpk-shared",
    )
    with pytest.raises(BuildError, match="MPK supports"):
        config.validate()


def test_hardening_names_must_be_in_image():
    with pytest.raises(BuildError, match="hardening"):
        BuildConfig(
            libraries=["libc"], hardening={"netstack": ("asan",)}
        ).validate()


def test_config_dict_roundtrip():
    import json

    config = BuildConfig(
        libraries=["libc", "netstack"],
        compartments=[["netstack"], ["sched", "alloc", "libc"]],
        backend="mpk-shared",
        hardening={"netstack": ("asan", "cfi")},
        api_guards=True,
        name="roundtrip",
    )
    data = json.loads(json.dumps(config.to_dict()))
    rebuilt = BuildConfig.from_dict(data)
    assert rebuilt.libraries == config.libraries
    assert rebuilt.compartments == config.compartments
    assert rebuilt.hardening == {"netstack": ("asan", "cfi")}
    assert rebuilt.backend == "mpk-shared"
    assert rebuilt.api_guards is True
    rebuilt.validate()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(BuildError, match="unknown config keys"):
        BuildConfig.from_dict({"libraries": ["libc"], "turbo": True})


def test_config_dict_roundtrip_auto_compartments():
    config = BuildConfig(libraries=["libc"])
    rebuilt = BuildConfig.from_dict(config.to_dict())
    assert rebuilt.compartments is None


def test_constant_tables():
    assert "none" in BACKENDS and "vm-rpc" in BACKENDS
    assert set(ALLOC_POLICIES) == {"per-compartment", "global"}
    assert set(SCHEDULERS) == {"coop", "verified"}


def test_config_roundtrip_covers_every_field():
    import json

    config = BuildConfig(
        libraries=["libc", "netstack"],
        compartments=[["netstack"], ["sched", "alloc", "libc"]],
        backend="vm-rpc",
        api_guards=True,
        clear_registers=False,
        failure_policy="restart-with-backoff",
        name="full-roundtrip",
    )
    rebuilt = BuildConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt.to_dict() == config.to_dict()
    assert rebuilt.api_guards is True
    assert rebuilt.clear_registers is False
    assert rebuilt.failure_policy == "restart-with-backoff"
    rebuilt.validate()


def test_unknown_failure_policy_rejected():
    with pytest.raises(BuildError, match="failure policy"):
        BuildConfig(
            libraries=["libc"], failure_policy="reboot-universe"
        ).validate()


def test_failure_policy_constants():
    from repro.core.config import FAILURE_POLICIES

    assert FAILURE_POLICIES == ("propagate", "isolate", "restart-with-backoff")
    for policy in FAILURE_POLICIES:
        BuildConfig(libraries=["libc"], failure_policy=policy).validate()
