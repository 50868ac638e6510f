"""The exploration fast path: variant matrix and coloring memo.

Property-style tests (seeded random instances, the bench's synthetic
sets and the library sets the explorer's callers explore) pinning the
fast pipeline to its reference implementations:

- the variant compatibility matrix reproduces ``conflict_graph``;
- ``iter_deployments`` yields the same deployments, in the same order,
  as the per-combination pipeline in ``tests/core/reference.py``, and
  both explorer strategies pick what that pipeline's list picks;
- the coloring memo is bit-identical to calling the solver;
- ``exact_coloring`` matches DSATUR's color count whenever DSATUR is
  provably optimal (count == clique lower bound);
- ``Deployment.key()`` is color-permutation invariant.
"""

import itertools
import random

import pytest

import repro.apps  # noqa: F401  (registers the app libraries)
from benchmarks.bench_explorer import synthetic_libdefs
from repro.cluster.cluster import CLUSTER_LIBRARIES
from repro.core.builder import LIBRARY_TYPES, library_defs
from repro.core.coloring import (
    ColoringCache,
    dsatur_coloring,
    exact_coloring,
    minimum_coloring,
    verify_coloring,
    _max_clique_lower_bound,
    _adjacency,
)
from repro.core.compatibility import CompatibilityMatrix, conflict_graph
from repro.core.config import BuildConfig
from repro.core.explorer import Explorer, crossing_cost_fn
from repro.core.hardening import (
    Deployment,
    LibraryDef,
    iter_deployments,
    transform_spec,
    sh_variants,
)
from repro.core.metadata import LibrarySpec, Region, Requires
from tests.core.reference import eager_deployments, reference_picks


def random_spec(rng: random.Random, name: str) -> LibrarySpec:
    """A random but plausible library spec."""
    wild = rng.random() < 0.5
    requires = None
    if rng.random() < 0.5:
        requires = Requires(
            writes=(
                frozenset({Region.SHARED})
                if rng.random() < 0.5
                else frozenset({Region.OWN, Region.SHARED})
            ),
            reads=(
                frozenset({Region.OWN, Region.SHARED})
                if rng.random() < 0.3
                else None
            ),
            calls=frozenset({"init", "step"}) if rng.random() < 0.3 else None,
        )
    return LibrarySpec(
        name=name,
        reads=frozenset({Region.ALL})
        if wild
        else frozenset({Region.OWN, Region.SHARED}),
        writes=frozenset({Region.ALL})
        if wild
        else frozenset({Region.OWN, Region.SHARED}),
        calls=None if rng.random() < 0.4 else frozenset({f"{name}x::init"}),
        requires=requires,
    )


def random_libdef(rng: random.Random, name: str) -> LibraryDef:
    spec = random_spec(rng, name)
    behavior = {}
    if rng.random() < 0.8:
        behavior["writes"] = ["Own", "Shared"]
        behavior["reads"] = ["Own", "Shared"]
    if rng.random() < 0.5:
        behavior["calls"] = [f"{name}x::init"]
    return LibraryDef(name=name, spec=spec, true_behavior=behavior)


def assert_matches_reference(libdefs, alternatives, isolate=()) -> None:
    """``iter_deployments`` and both strategies, against the reference
    pipeline: the same deployments in the same order, and the same
    picks at an unbounded and at the median analytic budget."""
    eager = eager_deployments(libdefs, alternatives, isolate)
    fast = list(iter_deployments(libdefs, alternatives, isolate=isolate))
    assert fast == eager  # same deployments, same order, bit-identical
    assert [d.key() for d in fast] == [d.key() for d in eager]
    explorer = Explorer(libdefs, alternatives, isolate=isolate)
    costs = sorted(map(crossing_cost_fn(libdefs), eager))
    for budget in (1e9, costs[len(costs) // 2]):
        expected = reference_picks(eager, libdefs, budget)
        got = {
            "max_security_within_budget": explorer.max_security_within_budget(
                budget
            ),
            "best_performance_meeting": explorer.best_performance_meeting(
                ["no-wild-writes"]
            ),
        }
        assert {name: pick and pick.key() for name, pick in got.items()} == {
            name: pick and pick.key() for name, pick in expected.items()
        }


@pytest.mark.parametrize("seed", range(8))
def test_matrix_matches_conflict_graph(seed):
    """Every selection's edges from the matrix == a fresh conflict_graph."""
    rng = random.Random(seed)
    libdefs = [random_libdef(rng, f"lib{i}") for i in range(4)]
    variant_specs = {
        libdef.name: [
            transform_spec(libdef, techs)
            for techs in sh_variants(libdef, alternatives=True)
        ]
        for libdef in libdefs
    }
    matrix = CompatibilityMatrix(variant_specs)
    ranges = [range(len(specs)) for specs in variant_specs.values()]
    for indices in itertools.product(*ranges):
        selection = dict(zip(variant_specs, indices))
        selected = [
            variant_specs[name][index] for name, index in selection.items()
        ]
        assert matrix.edges_for(selection) == conflict_graph(selected)[1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alternatives", [False, True])
def test_lazy_enumeration_matches_eager(seed, alternatives):
    rng = random.Random(seed)
    libdefs = [random_libdef(rng, f"lib{i}") for i in range(4)]
    assert_matches_reference(libdefs, alternatives)


@pytest.mark.parametrize("alternatives", [False, True])
@pytest.mark.parametrize("count", [4, 6])
def test_synthetic_sets_match_reference(count, alternatives):
    assert_matches_reference(synthetic_libdefs(count), alternatives)


@pytest.mark.parametrize("alternatives", [False, True])
@pytest.mark.parametrize(
    "libraries",
    [
        ["libc", "netstack", "iperf"],
        ["libc", "netstack", "vfs", "iperf"],
        ["libc", "netstack", "redis"],
        CLUSTER_LIBRARIES,
    ],
    ids=",".join,
)
def test_library_sets_match_reference(libraries, alternatives):
    defs = library_defs(BuildConfig(libraries=list(libraries)))
    assert_matches_reference(defs, alternatives)


def test_no_registered_library_has_a_dominated_variant():
    """No SH variant of a registered library leaves the spec of a variant
    with a subset of its techniques unchanged, so no deployment is ever
    cost-dominated by another with the same effective specs."""
    defs = library_defs(BuildConfig(libraries=sorted(LIBRARY_TYPES)))
    assert {"iperf", "redis", "httpd"} <= {libdef.name for libdef in defs}
    for libdef in defs:
        variants = sh_variants(libdef, alternatives=True)
        for fewer, more in itertools.permutations(variants, 2):
            if set(fewer) <= set(more):
                assert transform_spec(libdef, fewer) != transform_spec(
                    libdef, more
                ), (libdef.name, fewer, more)


def test_isolate_edges_preserved_on_fast_path():
    rng = random.Random(42)
    libdefs = [random_libdef(rng, f"lib{i}") for i in range(4)]
    assert_matches_reference(libdefs, False, isolate=("lib2",))
    for deployment in iter_deployments(libdefs, isolate=("lib2",)):
        alone = [
            name
            for name, color in deployment.coloring.items()
            if color == deployment.coloring["lib2"]
        ]
        assert alone == ["lib2"]


def random_graph(rng: random.Random, size: int, density: float):
    nodes = [f"n{i}" for i in range(size)]
    edges = {
        frozenset({a, b})
        for a, b in itertools.combinations(nodes, 2)
        if rng.random() < density
    }
    return nodes, edges


@pytest.mark.parametrize("seed", range(12))
def test_exact_matches_dsatur_when_dsatur_optimal(seed):
    rng = random.Random(seed)
    nodes, edges = random_graph(rng, rng.randint(4, 9), rng.random() * 0.7)
    dsatur = dsatur_coloring(nodes, edges)
    exact = exact_coloring(nodes, edges)
    assert verify_coloring(edges, dsatur)
    assert verify_coloring(edges, exact)
    dsatur_count = max(dsatur.values()) + 1
    exact_count = max(exact.values()) + 1
    assert exact_count <= dsatur_count
    lower = _max_clique_lower_bound(_adjacency(nodes, edges))
    if dsatur_count == lower:  # DSATUR provably optimal here
        assert exact_count == dsatur_count


@pytest.mark.parametrize("seed", range(8))
def test_coloring_cache_bit_identical_and_hits(seed):
    rng = random.Random(seed)
    nodes, edges = random_graph(rng, 7, 0.4)
    cache = ColoringCache()
    first = cache.minimum_coloring(nodes, edges)
    direct = minimum_coloring(nodes, edges)
    assert first == direct
    assert cache.misses == 1 and cache.hits == 0
    second = cache.minimum_coloring(nodes, edges)
    assert second == first
    assert cache.hits == 1
    # Cached results are copies: mutating one must not poison the memo.
    second["poison"] = 99
    assert "poison" not in cache.minimum_coloring(nodes, edges)


def _deployment(coloring: dict[str, int]) -> Deployment:
    specs = {
        name: LibrarySpec(name=name) for name in coloring
    }
    choices = {name: () for name in coloring}
    return Deployment(choices=choices, specs=specs, coloring=coloring)


def test_deployment_key_is_color_permutation_invariant():
    one = _deployment({"a": 0, "b": 1, "c": 0})
    # Same partition {a,c} | {b}, colors swapped.
    two = _deployment({"a": 1, "b": 0, "c": 1})
    other = _deployment({"a": 0, "b": 1, "c": 1})
    assert one.key() == two.key()
    assert hash(one.key()) == hash(two.key())
    assert one.key() != other.key()
    assert one.partition() == frozenset(
        {frozenset({"a", "c"}), frozenset({"b"})}
    )


def test_deployment_key_reflects_choices():
    base = {"a": 0, "b": 1}
    plain = Deployment(
        choices={"a": (), "b": ()},
        specs={n: LibrarySpec(name=n) for n in base},
        coloring=base,
    )
    hardened = Deployment(
        choices={"a": ("asan",), "b": ()},
        specs={n: LibrarySpec(name=n) for n in base},
        coloring=base,
    )
    assert plain.key() != hardened.key()
    assert plain.key() == plain.key()


def test_estimator_backend_weights_rank_consistently():
    """A multi-compartment deployment costs more under dearer backends."""
    specs = {n: LibrarySpec(name=n) for n in ("a", "b")}
    libdefs = [
        LibraryDef(name="a", spec=specs["a"], true_behavior={"calls": ["b::f"]}),
        LibraryDef(name="b", spec=specs["b"], true_behavior={"calls": []}),
    ]
    split = Deployment(
        choices={"a": (), "b": ()},
        specs={
            "a": LibrarySpec(name="a", calls=frozenset({"b::f"})),
            "b": LibrarySpec(name="b", calls=frozenset()),
        },
        coloring={"a": 0, "b": 1},
    )
    default = crossing_cost_fn(libdefs)(split)
    mpk = crossing_cost_fn(libdefs, backend="mpk-shared")(split)
    vm = crossing_cost_fn(libdefs, backend="vm-rpc")(split)
    cheri = crossing_cost_fn(libdefs, backend="cheri")(split)
    assert default == mpk  # mpk-shared is the normalisation point
    assert vm > mpk > cheri
    with pytest.raises(Exception):
        crossing_cost_fn(libdefs, backend="quantum")


def test_explorer_strategies_match_eager_reference():
    rng = random.Random(11)
    libdefs = [random_libdef(rng, f"lib{i}") for i in range(4)]
    assert_matches_reference(libdefs, alternatives=True)
