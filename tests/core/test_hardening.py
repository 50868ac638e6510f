"""SH spec transformations and deployment enumeration (paper §2)."""

import pytest

from repro.core.hardening import (
    TRANSFORMATIONS,
    LibraryDef,
    iter_deployments,
    sh_variants,
    transform_spec,
)
from repro.core.metadata import LibrarySpec, Region, Requires
from repro.core.spec_parser import parse_spec

SCHED = LibraryDef(
    name="sched",
    spec=parse_spec(
        "sched",
        """
        [Memory access] Read(Own,Shared); Write(Own,Shared)
        [Call] alloc::malloc
        [Requires] *(Read,Own), *(Write,Shared), *(Call, thread_add)
        """,
    ),
    true_behavior={"writes": ["Own", "Shared"], "reads": ["Own", "Shared"]},
)

UNSAFE = LibraryDef(
    name="unsafe",
    spec=parse_spec("unsafe", "[Memory access] Read(*); Write(*)\n[Call] *"),
    true_behavior={
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": ["sched::thread_add", "alloc::malloc"],
    },
)

OPAQUE = LibraryDef(
    name="opaque",
    spec=parse_spec("opaque", "[Memory access] Read(*); Write(*)\n[Call] *"),
    true_behavior={},  # no analysis facts: cannot be narrowed
)


def test_cfi_transformation():
    transformation = TRANSFORMATIONS["cfi"]
    assert transformation.applicable(UNSAFE)
    narrowed = transformation.transform(UNSAFE, UNSAFE.spec)
    assert narrowed.calls == frozenset(
        {"sched::thread_add", "alloc::malloc"}
    )
    # Memory behaviour untouched by CFI.
    assert narrowed.writes_everything


def test_cfi_not_applicable_without_facts():
    assert not TRANSFORMATIONS["cfi"].applicable(OPAQUE)
    unchanged = TRANSFORMATIONS["cfi"].transform(OPAQUE, OPAQUE.spec)
    assert unchanged.calls is None


def test_dfi_transformation():
    """Paper: 'if the data flow graph of a library shows that all its
    writes are to its own data, Writes(*) will be transformed'."""
    transformation = TRANSFORMATIONS["dfi"]
    assert transformation.applicable(UNSAFE)
    narrowed = transformation.transform(UNSAFE, UNSAFE.spec)
    assert narrowed.writes == frozenset({Region.OWN, Region.SHARED})
    assert narrowed.reads_everything  # DFI bounds only writes


def test_asan_transformation_bounds_both():
    narrowed = TRANSFORMATIONS["asan"].transform(UNSAFE, UNSAFE.spec)
    assert not narrowed.writes_everything
    assert not narrowed.reads_everything


def test_transformations_not_applicable_to_bounded_lib():
    for name in ("cfi", "dfi", "asan"):
        assert not TRANSFORMATIONS[name].applicable(SCHED)
        assert TRANSFORMATIONS[name].transform(SCHED, SCHED.spec) == SCHED.spec


def test_transform_spec_composes():
    spec = transform_spec(UNSAFE, ("asan", "cfi"))
    assert not spec.writes_everything
    assert spec.calls is not None
    # Cost-only techniques are ignored at the spec level.
    assert transform_spec(UNSAFE, ("stackprotector",)) == UNSAFE.spec


def test_sh_variants_paper_rule():
    """'1) for each library that writes to all memory, enable DFI/ASAN;
    2) for each library that can execute arbitrary code, enable CFI.'"""
    variants = sh_variants(UNSAFE)
    assert variants[0] == ()  # the without-SH version always exists
    assert ("asan", "cfi") in variants
    assert len(variants) == 2  # 'two versions: one with SH, one without'


def test_sh_variants_alternatives():
    variants = sh_variants(UNSAFE, alternatives=True)
    assert ("asan", "cfi") in variants
    assert ("dfi", "cfi") in variants


def test_sh_variants_for_bounded_and_opaque():
    assert sh_variants(SCHED) == [()]
    assert sh_variants(OPAQUE) == [()]  # nothing can be proven


def test_enumerate_deployments_paper_example():
    """Scheduler + unsafe C lib: the SH version shares a compartment,
    the original requires a separate one (paper §2)."""
    deployments = list(iter_deployments([SCHED, UNSAFE]))
    assert len(deployments) == 2  # one per unsafe-lib version
    by_choice = {d.choices["unsafe"]: d for d in deployments}
    plain = by_choice[()]
    hardened = by_choice[("asan", "cfi")]
    assert plain.num_compartments == 2
    assert plain.coloring["sched"] != plain.coloring["unsafe"]
    assert hardened.num_compartments == 1
    assert hardened.coloring["sched"] == hardened.coloring["unsafe"]


def test_deployment_introspection():
    deployments = list(iter_deployments([SCHED, UNSAFE]))
    hardened = next(d for d in deployments if d.choices["unsafe"])
    assert hardened.hardened_libraries() == ["unsafe"]
    assert hardened.compartments == [["sched", "unsafe"]]
    text = hardened.describe()
    assert "unsafe[asan+cfi]" in text


def test_enumeration_size_scales_with_hardenable_libs():
    libs = [SCHED, UNSAFE, OPAQUE]
    deployments = list(iter_deployments(libs))
    # Only `unsafe` has two versions; sched and opaque have one each.
    assert len(deployments) == 2


def test_requires_survive_transformation():
    libdef = LibraryDef(
        name="svc",
        spec=LibrarySpec(
            name="svc",
            writes=frozenset({Region.ALL}),
            calls=None,
            requires=Requires(calls=frozenset({"api"})),
        ),
        true_behavior={"writes": ["Own"], "calls": []},
    )
    spec = transform_spec(libdef, ("asan", "cfi"))
    assert spec.requires == libdef.spec.requires


def test_bad_region_name_in_facts_rejected():
    from repro.core.errors import SpecError

    libdef = LibraryDef(
        name="bad",
        spec=parse_spec("bad", "[Memory access] Read(*); Write(*)"),
        true_behavior={"writes": ["Heap"]},
    )
    with pytest.raises(SpecError):
        transform_spec(libdef, ("dfi",))
