"""A reference enumeration and strategies for the explorer tests.

:func:`eager_deployments` is the definition that
:func:`~repro.core.hardening.iter_deployments` must match deployment for
deployment: every SH-variant combination, in product order, gets its
transformed specs, a fresh conflict graph over them (every pair through
``can_share``) and a fresh ``minimum_coloring`` — no pairwise variant
matrix and no coloring memo.  ``isolate`` adds an edge from each named
library to every other one.

:func:`reference_picks` answers both search strategies over such a list
directly, with the explorer's first-optimum tie-breaking.
"""

from __future__ import annotations

import itertools

from repro.core.coloring import minimum_coloring
from repro.core.compatibility import conflict_graph
from repro.core.explorer import (
    crossing_cost_fn,
    requirement_satisfied,
    security_score,
)
from repro.core.hardening import Deployment, sh_variants, transform_spec


def eager_deployments(libdefs, alternatives=False, isolate=()) -> list:
    """All SH-variant combinations, each colored from scratch."""
    option_lists = [sh_variants(libdef, alternatives) for libdef in libdefs]
    deployments = []
    for combo in itertools.product(*option_lists):
        choices = {
            libdef.name: techs for libdef, techs in zip(libdefs, combo)
        }
        specs = {
            libdef.name: transform_spec(libdef, techs)
            for libdef, techs in zip(libdefs, combo)
        }
        nodes, edges = conflict_graph(list(specs.values()))
        for name in isolate:
            for other in nodes:
                if other != name:
                    edges.add(frozenset({name, other}))
        coloring = minimum_coloring(nodes, edges)
        deployments.append(
            Deployment(choices=choices, specs=specs, coloring=coloring)
        )
    return deployments


def reference_picks(deployments, libdefs, budget) -> dict:
    """Strategy 1 within ``budget`` and strategy 2 for ``no-wild-writes``
    under the analytic cost; ``max``/``min`` return the first optimum."""
    perf = crossing_cost_fn(libdefs)
    within = [d for d in deployments if perf(d) <= budget]
    compliant = [
        d
        for d in deployments
        if requirement_satisfied(d, "no-wild-writes", libdefs)
    ]
    return {
        "max_security_within_budget": (
            max(within, key=security_score) if within else None
        ),
        "best_performance_meeting": (
            min(compliant, key=perf) if compliant else None
        ),
    }
