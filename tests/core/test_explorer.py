"""Design-space explorer: the paper's two search strategies."""

import pytest

from repro.core.errors import CompatibilityError
from repro.core.explorer import (
    SH_WEIGHTS,
    Explorer,
    crossing_cost_fn,
    isolation_hints,
    requirement_satisfied,
    security_score,
)
from repro.core.hardening import LibraryDef, iter_deployments
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
    true_behavior={"calls": ["alloc::malloc"]},
)
NETSTACK = LibraryDef(
    name="netstack",
    spec=parse_spec("netstack", "[Memory access] Read(*); Write(*)\n[Call] *"),
    true_behavior={
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": ["libc::memcpy", "sched::thread_add"],
    },
)
LIBC = LibraryDef(
    name="libc",
    spec=parse_spec("libc", "[Memory access] Read(*); Write(*)\n[Call] *"),
    true_behavior={
        "writes": ["Own", "Shared"],
        "reads": ["Own", "Shared"],
        "calls": ["sched::thread_add"],
    },
)
LIBS = [SCHED, NETSTACK, LIBC]


@pytest.fixture(scope="module")
def explorer():
    return Explorer(LIBS)


def test_enumeration_covers_all_combinations(explorer):
    # netstack and libc each have 2 versions: 4 deployments.
    assert len(explorer.deployments) == 4


def test_security_score_prefers_separation_and_sh(explorer):
    # In enumeration order: both wild writers unhardened and sharing a
    # compartment (two compartments, one penalty each); libc hardened
    # (4 for its two techniques, 5 for the second compartment);
    # netstack hardened, likewise; both hardened in one compartment.
    assert [security_score(d) for d in explorer.deployments] == [
        -3.0,
        9.0,
        9.0,
        8.0,
    ]


def test_crossing_estimator_counts_boundary_edges():
    deployments = list(iter_deployments(LIBS))
    cost = crossing_cost_fn(LIBS)
    for deployment in deployments:
        assert cost(deployment) >= 0
    # A deployment with everything co-located has zero crossings, so it
    # costs only its hardening.
    merged = next(d for d in deployments if d.num_compartments == 1)
    assert cost(merged) == sum(
        SH_WEIGHTS[technique]
        for techniques in merged.choices.values()
        for technique in techniques
    )


def test_max_security_within_budget(explorer):
    generous = explorer.max_security_within_budget(budget=1e9)
    assert generous is not None
    # With a generous budget the best deployment separates or hardens.
    assert security_score(generous) == max(
        security_score(d) for d in explorer.deployments
    )


def test_budget_too_tight_returns_none(explorer):
    assert explorer.max_security_within_budget(budget=-1.0) is None


def test_best_performance_meeting_requirements(explorer):
    best = explorer.best_performance_meeting(["no-wild-writes"])
    assert best is not None
    for name, spec in best.specs.items():
        sizes = {}
        for color in best.coloring.values():
            sizes[color] = sizes.get(color, 0) + 1
        if spec.writes_everything:
            assert sizes[best.coloring[name]] == 1


def test_requirement_vocabulary(explorer):
    deployment = explorer.deployments[0]
    assert isinstance(
        requirement_satisfied(deployment, "isolated:sched", LIBS), bool
    )
    assert isinstance(
        requirement_satisfied(deployment, "write-protected:sched", LIBS), bool
    )
    assert isinstance(
        requirement_satisfied(deployment, "cfi:netstack", LIBS), bool
    )


def test_cfi_requirement_tracks_choice(explorer):
    hardened = next(d for d in explorer.deployments if d.choices["netstack"])
    plain = next(d for d in explorer.deployments if not d.choices["netstack"])
    assert requirement_satisfied(hardened, "cfi:netstack", LIBS)
    assert not requirement_satisfied(plain, "cfi:netstack", LIBS)


def test_unknown_requirement_rejected(explorer):
    deployment = explorer.deployments[0]
    with pytest.raises(CompatibilityError):
        requirement_satisfied(deployment, "quantum-safe", LIBS)
    with pytest.raises(CompatibilityError):
        requirement_satisfied(deployment, "isolated:ghost", LIBS)
    with pytest.raises(CompatibilityError):
        requirement_satisfied(deployment, "blessed:sched", LIBS)


def test_impossible_requirements_return_none(explorer):
    # Only the deployment with both wild writers unhardened keeps sched
    # alone, and those writers share a compartment.
    requirements = ["isolated:sched", "no-wild-writes"]
    assert not any(
        all(requirement_satisfied(d, r, LIBS) for r in requirements)
        for d in explorer.deployments
    )
    assert explorer.best_performance_meeting(requirements) is None


def test_isolation_hints_reach_isolated_partitions():
    requirements = ["isolated:sched", "no-wild-writes"]
    assert isolation_hints(requirements) == ("sched",)
    hinted = Explorer(LIBS, isolate=isolation_hints(requirements))
    best = hinted.best_performance_meeting(requirements)
    assert best is not None
    assert all(requirement_satisfied(best, r, LIBS) for r in requirements)


def test_custom_perf_fn_used(explorer):
    calls = []

    def perf(deployment):
        calls.append(deployment)
        return float(deployment.num_compartments)

    best = explorer.best_performance_meeting([], perf_fn=perf)
    assert best.num_compartments == min(
        d.num_compartments for d in explorer.deployments
    )
    assert len(calls) == len(explorer.deployments)
