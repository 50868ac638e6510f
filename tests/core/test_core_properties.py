"""Property-based tests for core invariants (hypothesis)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compatibility import can_share, conflict_graph, violations
from repro.core.coloring import minimum_coloring, verify_coloring
from repro.core.hardening import (
    LibraryDef,
    iter_deployments,
    transform_spec,
)
from repro.core.metadata import LibrarySpec, Region, Requires

regions = st.sets(
    st.sampled_from([Region.OWN, Region.SHARED, Region.ALL]), min_size=1
)
fn_names = st.sampled_from(["alpha", "beta", "gamma", "delta"])
call_targets = st.sets(
    st.tuples(st.sampled_from(["lib0", "lib1", "lib2"]), fn_names).map(
        lambda pair: f"{pair[0]}::{pair[1]}"
    ),
    max_size=4,
)
maybe_calls = st.one_of(st.none(), call_targets)
maybe_requires = st.one_of(
    st.none(),
    st.builds(
        Requires,
        reads=st.one_of(st.none(), regions.map(frozenset)),
        writes=st.one_of(st.none(), regions.map(frozenset)),
        calls=st.one_of(st.none(), st.sets(fn_names).map(frozenset)),
    ),
)


def spec_strategy(name: str):
    return st.builds(
        LibrarySpec,
        name=st.just(name),
        reads=regions.map(frozenset),
        writes=regions.map(frozenset),
        calls=maybe_calls,
        requires=maybe_requires,
    )


@settings(max_examples=100, deadline=None)
@given(a=spec_strategy("lib0"), b=spec_strategy("lib1"))
def test_can_share_is_symmetric(a, b):
    assert can_share(a, b) == can_share(b, a)


@settings(max_examples=100, deadline=None)
@given(a=spec_strategy("lib0"), b=spec_strategy("lib1"))
def test_no_requires_means_no_violations(a, b):
    if a.requires is None or a.requires.empty:
        assert violations(b, a) == []


@settings(max_examples=100, deadline=None)
@given(spec=spec_strategy("lib0"))
def test_spec_describe_reparses_equivalently(spec):
    """describe() → parse_spec() is lossless for the behaviour fields."""
    from repro.core.spec_parser import parse_spec

    reparsed = parse_spec(spec.name, spec.describe())
    assert reparsed.reads == spec.reads
    assert reparsed.writes == spec.writes
    assert reparsed.calls == spec.calls
    expected_requires = spec.requires
    if expected_requires is not None and expected_requires.empty:
        expected_requires = None
    if expected_requires is None:
        assert reparsed.requires is None
    else:
        assert reparsed.requires.reads == expected_requires.reads
        assert reparsed.requires.writes == expected_requires.writes
        if expected_requires.calls == frozenset():
            # The DSL has no syntax for an empty allowance list; it
            # renders as absent (documented in LibrarySpec.describe).
            assert reparsed.requires.calls is None
        else:
            assert reparsed.requires.calls == expected_requires.calls


@settings(max_examples=60, deadline=None)
@given(
    specs=st.tuples(
        spec_strategy("lib0"), spec_strategy("lib1"), spec_strategy("lib2")
    )
)
def test_conflict_graph_colorings_always_valid(specs):
    nodes, edges = conflict_graph(list(specs))
    coloring = minimum_coloring(nodes, edges)
    assert verify_coloring(edges, coloring)
    # Every same-color pair really is compatible.
    by_name = {spec.name: spec for spec in specs}
    for a, b in itertools.combinations(nodes, 2):
        if coloring[a] == coloring[b]:
            assert can_share(by_name[a], by_name[b])


@settings(max_examples=60, deadline=None)
@given(
    writes=regions,
    reads=regions,
    requires=maybe_requires,
)
def test_hardening_never_widens_behavior(writes, reads, requires):
    """SH transformations only narrow a spec: a hardened variant is
    compatible with everything the unhardened one was compatible with."""
    libdef = LibraryDef(
        name="lib0",
        spec=LibrarySpec(
            name="lib0",
            reads=frozenset(reads),
            writes=frozenset(writes),
            calls=None,
            requires=requires,
        ),
        true_behavior={
            "writes": ["Own", "Shared"],
            "reads": ["Own", "Shared"],
            "calls": ["lib1::alpha"],
        },
    )
    hardened = transform_spec(libdef, ("asan", "cfi"))
    # Narrowing: region sets shrink or stay equal.
    assert not (hardened.writes_everything and not libdef.spec.writes_everything)
    assert not (hardened.reads_everything and not libdef.spec.reads_everything)
    if libdef.spec.calls is not None:
        assert hardened.calls == libdef.spec.calls
    # Against an arbitrary strict owner, hardened never has MORE
    # violations than unhardened.
    owner = LibrarySpec(
        name="owner",
        requires=Requires(
            reads=frozenset({Region.OWN}),
            writes=frozenset({Region.SHARED}),
            calls=frozenset(),
        ),
    )
    assert len(violations(hardened, owner)) <= len(
        violations(libdef.spec, owner)
    )


@settings(max_examples=40, deadline=None)
@given(
    unsafe_count=st.integers(min_value=0, max_value=3),
)
def test_fully_hardened_deployment_minimizes_compartments(unsafe_count):
    """The all-hardened combination never needs more compartments than
    any other combination (narrower specs => fewer conflicts)."""
    libdefs = [
        LibraryDef(
            name=f"unsafe{i}",
            spec=LibrarySpec(
                name=f"unsafe{i}",
                reads=frozenset({Region.ALL}),
                writes=frozenset({Region.ALL}),
                calls=None,
            ),
            true_behavior={
                "writes": ["Own", "Shared"],
                "reads": ["Own", "Shared"],
                "calls": [],
            },
        )
        for i in range(unsafe_count)
    ]
    libdefs.append(
        LibraryDef(
            name="guard",
            spec=LibrarySpec(
                name="guard",
                requires=Requires(
                    reads=frozenset({Region.OWN}),
                    writes=frozenset({Region.SHARED}),
                    calls=frozenset({"enter"}),
                ),
            ),
        )
    )
    deployments = list(iter_deployments(libdefs))
    fully = min(
        deployments, key=lambda d: sum(len(t) for t in d.choices.values())
    )
    most_hardened = max(
        deployments, key=lambda d: sum(len(t) for t in d.choices.values())
    )
    assert most_hardened.num_compartments <= fully.num_compartments
