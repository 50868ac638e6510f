"""Pairwise compartment-sharing compatibility (paper §2).

"Given two libraries and their metadata, we now have enough information
to automatically decide whether they can run in the same compartment.
If both libraries have no Requires clause, the answer is yes.  If any
of the libraries has such clauses, each clause can be automatically
checked in the presence of the other library."

The check is directional — :func:`violations` lists how ``actor``'s
(adversarial) behaviour breaks ``owner``'s allowances — and symmetric
compatibility requires both directions to be clean.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.metadata import LibrarySpec, Region


@dataclasses.dataclass(frozen=True)
class Violation:
    """One way ``actor`` breaks an allowance of ``owner``."""

    actor: str
    owner: str
    category: str  # "read", "write", or "call"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display
        return f"{self.actor} vs {self.owner} [{self.category}]: {self.detail}"


def violations(actor: LibrarySpec, owner: LibrarySpec) -> list[Violation]:
    """How ``actor``'s behaviour violates ``owner.requires``."""
    requires = owner.requires
    if requires is None or requires.empty:
        return []
    found: list[Violation] = []

    # --- writes: what of owner's view does actor write? -----------------
    if requires.writes is not None:
        needed: set[Region] = set()
        if actor.writes_everything:
            # A hijacked actor writes everything reachable, including
            # the owner's private memory.
            needed = {Region.OWN, Region.SHARED}
        elif Region.SHARED in actor.writes:
            needed = {Region.SHARED}
        for region in sorted(needed - set(requires.writes), key=str):
            found.append(
                Violation(
                    actor.name,
                    owner.name,
                    "write",
                    f"may write {region} memory of {owner.name}, which only "
                    f"allows writes to "
                    f"{sorted(str(r) for r in requires.writes) or 'nothing'}",
                )
            )

    # --- reads (write allowances imply read allowances) -----------------------
    allowed_reads = requires.allowed_reads()
    if allowed_reads is not None:
        needed = set()
        if actor.reads_everything:
            needed = {Region.OWN, Region.SHARED}
        elif Region.SHARED in actor.reads:
            needed = {Region.SHARED}
        for region in sorted(needed - set(allowed_reads), key=str):
            found.append(
                Violation(
                    actor.name,
                    owner.name,
                    "read",
                    f"may read {region} memory of {owner.name} without an "
                    f"allowance",
                )
            )

    # --- calls: control transfers into owner ---------------------------------
    if requires.calls is not None:
        into = actor.calls_into(owner.name)
        if into is None:
            found.append(
                Violation(
                    actor.name,
                    owner.name,
                    "call",
                    f"may execute arbitrary code, bypassing {owner.name}'s "
                    f"entry points",
                )
            )
        else:
            for fn in sorted(into - set(requires.calls)):
                found.append(
                    Violation(
                        actor.name,
                        owner.name,
                        "call",
                        f"calls {owner.name}::{fn}, not an allowed entry point",
                    )
                )
    return found


def can_share(a: LibrarySpec, b: LibrarySpec) -> bool:
    """May ``a`` and ``b`` be placed in the same compartment?"""
    return not violations(a, b) and not violations(b, a)


def explain_conflict(a: LibrarySpec, b: LibrarySpec) -> list[Violation]:
    """All violations in both directions (empty = compatible)."""
    return violations(a, b) + violations(b, a)


def conflict_graph(
    specs: list[LibrarySpec],
) -> tuple[list[str], set[frozenset[str]]]:
    """Build the incompatibility graph over a set of library specs.

    Returns (node names, edges) where an edge joins two libraries that
    must not share a compartment — the input to graph coloring
    (paper §2: "each library is a vertex, and an edge connects two
    incompatible libraries").
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate library names in spec list")
    edges: set[frozenset[str]] = set()
    for a, b in itertools.combinations(specs, 2):
        if not can_share(a, b):
            edges.add(frozenset({a.name, b.name}))
    return names, edges


class CompatibilityMatrix:
    """Pairwise ``can_share`` precomputed over per-library *variants*.

    ``can_share(a, b)`` depends only on the two specs, yet the naive
    enumeration recomputes it for every combination of the *other*
    libraries' variants — O(combos · n²) pair checks.  This matrix
    computes each cross-library variant pair exactly once
    (O((Σ variants)²) checks total) and then assembles the conflict
    edge set of any variant selection by table lookup.

    ``variant_specs`` maps library name → list of that library's
    effective specs, one per SH variant, in variant order.
    """

    def __init__(self, variant_specs: dict[str, list[LibrarySpec]]) -> None:
        if not all(variant_specs.values()):
            raise ValueError("every library needs at least one variant spec")
        self.pairs_checked = 0
        # (name_a, name_b) → variant_a → variant_b → conflict?, stored
        # once per unordered pair in ``variant_specs`` order.  A pair
        # whose table is all-False is dropped entirely: most library
        # pairs never conflict, and ``edges_for`` skips them for free.
        self._tables: dict[tuple[str, str], list[list[bool]]] = {}
        self._pair_edges: dict[tuple[str, str], frozenset[str]] = {}
        for (a, specs_a), (b, specs_b) in itertools.combinations(
            variant_specs.items(), 2
        ):
            table = [
                [not can_share(spec_a, spec_b) for spec_b in specs_b]
                for spec_a in specs_a
            ]
            self.pairs_checked += len(specs_a) * len(specs_b)
            if any(any(row) for row in table):
                self._tables[(a, b)] = table
                self._pair_edges[(a, b)] = frozenset({a, b})

    def edges_for(self, selection: dict[str, int]) -> set[frozenset[str]]:
        """Conflict edges of one variant selection (name → variant index).

        O(conflicting library pairs) table lookups — no ``can_share``
        evaluation, no scan over non-conflicting pairs.
        """
        edges: set[frozenset[str]] = set()
        for (a, b), table in self._tables.items():
            if table[selection[a]][selection[b]]:
                edges.add(self._pair_edges[(a, b)])
        return edges
