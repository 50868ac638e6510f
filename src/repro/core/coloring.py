"""Graph coloring for compartment minimization (paper §2).

"Selecting the smallest number of compartments in a FlexOS image can be
reduced to the classical graph coloring problem. ... In the worst case
where all libraries have conflicts, each library will be instantiated
in its own compartment."

Two solvers:

- :func:`dsatur_coloring` — the DSATUR greedy heuristic, fast and
  good for the small conflict graphs micro-library sets produce;
- :func:`exact_coloring` — branch-and-bound that provably minimizes
  the color count (feasible up to a few dozen vertices).

:func:`minimum_coloring` uses the exact solver when the graph is small
and falls back to DSATUR otherwise.
"""

from __future__ import annotations

from typing import Iterable

Edge = frozenset


def _adjacency(
    nodes: list[str], edges: Iterable[frozenset[str]]
) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {node: set() for node in nodes}
    for edge in edges:
        pair = sorted(edge)
        if len(pair) != 2:
            raise ValueError(f"edge must join two distinct nodes: {edge}")
        a, b = pair
        if a not in adjacency or b not in adjacency:
            raise ValueError(f"edge {edge} references unknown node")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def verify_coloring(
    edges: Iterable[frozenset[str]], coloring: dict[str, int]
) -> bool:
    """True if no edge joins two same-colored nodes."""
    for edge in edges:
        a, b = sorted(edge)
        if coloring[a] == coloring[b]:
            return False
    return True


def dsatur_coloring(
    nodes: list[str], edges: Iterable[frozenset[str]]
) -> dict[str, int]:
    """DSATUR greedy coloring (Brélaz): color by saturation degree."""
    adjacency = _adjacency(nodes, edges)
    coloring: dict[str, int] = {}
    uncolored = set(nodes)
    saturation: dict[str, set[int]] = {node: set() for node in nodes}
    while uncolored:
        # Most saturated first; break ties by degree, then name for
        # determinism.
        pick = max(
            uncolored,
            key=lambda n: (len(saturation[n]), len(adjacency[n]), n),
        )
        used = saturation[pick]
        color = 0
        while color in used:
            color += 1
        coloring[pick] = color
        uncolored.discard(pick)
        for neighbour in adjacency[pick]:
            saturation[neighbour].add(color)
    return coloring


def _max_clique_lower_bound(adjacency: dict[str, set[str]]) -> int:
    """A greedy clique gives a lower bound on the chromatic number."""
    best = 0
    for start in adjacency:
        clique = {start}
        for candidate in sorted(
            adjacency[start], key=lambda n: -len(adjacency[n])
        ):
            if all(candidate in adjacency[member] for member in clique):
                clique.add(candidate)
        best = max(best, len(clique))
    return max(best, 1 if adjacency else 0)


def exact_coloring(
    nodes: list[str], edges: Iterable[frozenset[str]]
) -> dict[str, int]:
    """Provably minimum coloring via branch-and-bound.

    Seeds the upper bound with DSATUR and prunes with a greedy-clique
    lower bound; exponential in the worst case, fine for micro-library
    conflict graphs.
    """
    if not nodes:
        return {}
    edges = list(edges)
    adjacency = _adjacency(nodes, edges)
    best = dsatur_coloring(nodes, edges)
    best_count = max(best.values()) + 1
    lower = _max_clique_lower_bound(adjacency)
    if best_count == lower:
        return best
    # Order nodes by degree (descending) for tighter early pruning.
    order = sorted(nodes, key=lambda n: -len(adjacency[n]))

    def backtrack(index: int, coloring: dict[str, int], used: int) -> None:
        nonlocal best, best_count
        if used >= best_count:
            return
        if index == len(order):
            best = dict(coloring)
            best_count = used
            return
        node = order[index]
        neighbour_colors = {
            coloring[n] for n in adjacency[node] if n in coloring
        }
        for color in range(min(used + 1, best_count)):
            if color in neighbour_colors:
                continue
            coloring[node] = color
            backtrack(index + 1, coloring, max(used, color + 1))
            del coloring[node]
            if best_count == lower:
                return

    backtrack(0, {}, 0)
    return best


def minimum_coloring(
    nodes: list[str], edges: Iterable[frozenset[str]]
) -> dict[str, int]:
    """Best-effort minimum coloring (exact up to 24 nodes)."""
    edges = list(edges)
    if len(nodes) <= 24:
        return exact_coloring(nodes, edges)
    return dsatur_coloring(nodes, edges)


class ColoringCache:
    """Memoizes :func:`minimum_coloring` by conflict-graph signature.

    Many SH-variant combinations induce *identical* conflict edge sets
    (hardening one library often leaves every other pair untouched), so
    the exponential enumeration keeps re-coloring the same graph.  The
    canonical signature is the node tuple plus the frozenset of edges:
    equal signatures get the exact same (cached) coloring back, so the
    memoized path is bit-identical to calling the solver directly.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._memo: dict[
            tuple[tuple[str, ...], frozenset[frozenset[str]]], dict[str, int]
        ] = {}

    def __len__(self) -> int:
        return len(self._memo)

    def minimum_coloring(
        self, nodes: list[str], edges: Iterable[frozenset[str]]
    ) -> dict[str, int]:
        """Cached :func:`minimum_coloring` (returns a fresh dict copy)."""
        signature = (tuple(nodes), frozenset(edges))
        cached = self._memo.get(signature)
        if cached is None:
            self.misses += 1
            cached = self._memo[signature] = minimum_coloring(
                nodes, signature[1]
            )
        else:
            self.hits += 1
        return dict(cached)


def color_classes(coloring: dict[str, int]) -> list[list[str]]:
    """Group nodes by color: the compartment contents, sorted stably."""
    classes: dict[int, list[str]] = {}
    for node, color in coloring.items():
        classes.setdefault(color, []).append(node)
    return [sorted(classes[color]) for color in sorted(classes)]
