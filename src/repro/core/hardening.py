"""Metadata-level software-hardening transformations (paper §2).

"We first create in FlexOS a machine-readable description of the impact
each SH technique has on the safety behavior of a library.  This is a
transformation that takes as input a library definition and outputs a
changed definition describing the safety behavior of the library when
the SH technique is enabled."

- CFI: ``Call(*)`` → ``Call(func. list)`` populated via a standard
  control-flow analysis (here: the library's ``TRUE_BEHAVIOR`` facts);
- DFI: if the data-flow graph shows all writes go to own data,
  ``Write(*)`` → ``Write(Own[,Shared])``;
- ASAN: like DFI for writes, and additionally bounds reads.

"The result of this step will be a list of libraries that have two
versions: one with SH, and one without.  We then iterate through all
combinations of such library versions and run the graph coloring
algorithm" — :func:`iter_deployments`.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.compatibility import CompatibilityMatrix
from repro.core.coloring import ColoringCache, color_classes
from repro.core.errors import SpecError
from repro.core.metadata import LibrarySpec, Region

#: Region-name strings accepted in TRUE_BEHAVIOR facts.
_REGION_BY_NAME = {"Own": Region.OWN, "Shared": Region.SHARED, "*": Region.ALL}


def _regions_from_names(names: list[str]) -> frozenset[Region]:
    regions = set()
    for name in names:
        region = _REGION_BY_NAME.get(name)
        if region is None:
            raise SpecError(f"unknown region name {name!r} in behaviour facts")
        regions.add(region)
    return frozenset(regions)


@dataclasses.dataclass(frozen=True)
class LibraryDef:
    """A library as the design-space tooling sees it.

    ``spec`` is the developer-declared (conservative) metadata;
    ``true_behavior`` holds the facts a static control/data-flow
    analysis would establish, used by the transformations to narrow the
    spec when an SH technique enforces those facts at runtime.
    """

    name: str
    spec: LibrarySpec
    true_behavior: dict = dataclasses.field(default_factory=dict)


class SpecTransformation:
    """Base class: how one SH technique rewrites a library spec."""

    technique = "abstract"

    def applicable(self, libdef: LibraryDef) -> bool:
        """Would applying this technique change the library's spec?"""
        raise NotImplementedError

    def transform(self, libdef: LibraryDef, spec: LibrarySpec) -> LibrarySpec:
        """Rewrite ``spec`` assuming the technique is enforced."""
        raise NotImplementedError


class CFITransformation(SpecTransformation):
    """``Call(*)`` → the analysed call list."""

    technique = "cfi"

    def applicable(self, libdef: LibraryDef) -> bool:
        return (
            libdef.spec.calls is None
            and libdef.true_behavior.get("calls") is not None
        )

    def transform(self, libdef: LibraryDef, spec: LibrarySpec) -> LibrarySpec:
        calls = libdef.true_behavior.get("calls")
        if calls is None or spec.calls is not None:
            return spec
        return dataclasses.replace(spec, calls=frozenset(calls))


class DFITransformation(SpecTransformation):
    """``Write(*)`` → the analysed write regions."""

    technique = "dfi"

    def applicable(self, libdef: LibraryDef) -> bool:
        return (
            libdef.spec.writes_everything
            and libdef.true_behavior.get("writes") is not None
        )

    def transform(self, libdef: LibraryDef, spec: LibrarySpec) -> LibrarySpec:
        writes = libdef.true_behavior.get("writes")
        if writes is None or not spec.writes_everything:
            return spec
        return dataclasses.replace(spec, writes=_regions_from_names(writes))


class ASANTransformation(SpecTransformation):
    """Bounds both writes and reads to the analysed regions."""

    technique = "asan"

    def applicable(self, libdef: LibraryDef) -> bool:
        has_write_facts = libdef.true_behavior.get("writes") is not None
        has_read_facts = libdef.true_behavior.get("reads") is not None
        return (libdef.spec.writes_everything and has_write_facts) or (
            libdef.spec.reads_everything and has_read_facts
        )

    def transform(self, libdef: LibraryDef, spec: LibrarySpec) -> LibrarySpec:
        writes = libdef.true_behavior.get("writes")
        reads = libdef.true_behavior.get("reads")
        if spec.writes_everything and writes is not None:
            spec = dataclasses.replace(spec, writes=_regions_from_names(writes))
        if spec.reads_everything and reads is not None:
            spec = dataclasses.replace(spec, reads=_regions_from_names(reads))
        return spec


#: Transformation registry, by technique name.  "kasan" and "mte"
#: bound memory behaviour the same way ASAN does (they enforce the same
#: facts at runtime, by software shadow or hardware tags respectively).
TRANSFORMATIONS: dict[str, SpecTransformation] = {
    t.technique: t
    for t in (CFITransformation(), DFITransformation(), ASANTransformation())
}
TRANSFORMATIONS["kasan"] = TRANSFORMATIONS["asan"]
TRANSFORMATIONS["mte"] = TRANSFORMATIONS["asan"]


def transform_spec(libdef: LibraryDef, techniques: tuple[str, ...]) -> LibrarySpec:
    """Apply each technique's transformation to the library's spec."""
    spec = libdef.spec
    for technique in techniques:
        transformation = TRANSFORMATIONS.get(technique)
        if transformation is None:
            # Cost-only techniques (ubsan, stackprotector, safestack)
            # don't change the safety spec.
            continue
        spec = transformation.transform(libdef, spec)
    return spec


def sh_variants(libdef: LibraryDef, alternatives: bool = False) -> list[tuple[str, ...]]:
    """The SH versions a library can be built in (paper's enumeration).

    "1) for each library that writes to all memory, enable DFI / ASAN;
    2) for each library that can execute arbitrary code, enable CFI."
    Returns technique tuples, always starting with the unhardened
    ``()`` variant.  With ``alternatives=True``, both the ASAN- and the
    DFI-flavoured fix for unbounded writes are emitted.
    """
    variants: list[tuple[str, ...]] = [()]
    needs_write_fix = TRANSFORMATIONS["asan"].applicable(libdef) or TRANSFORMATIONS[
        "dfi"
    ].applicable(libdef)
    needs_call_fix = TRANSFORMATIONS["cfi"].applicable(libdef)
    call_part = ("cfi",) if needs_call_fix else ()
    if needs_write_fix:
        variants.append(("asan",) + call_part)
        if alternatives and TRANSFORMATIONS["dfi"].applicable(libdef):
            variants.append(("dfi",) + call_part)
    elif needs_call_fix:
        variants.append(call_part)
    return variants


@dataclasses.dataclass(frozen=True)
class Deployment:
    """One feasible build: SH choices + resulting compartment layout."""

    #: library name → techniques applied ("" tuple = unhardened).
    choices: dict[str, tuple[str, ...]]
    #: library name → effective (possibly transformed) spec.
    specs: dict[str, LibrarySpec]
    #: library name → compartment color.
    coloring: dict[str, int]

    @property
    def num_compartments(self) -> int:
        """Number of compartments the coloring produced."""
        return max(self.coloring.values()) + 1 if self.coloring else 0

    @property
    def compartments(self) -> list[list[str]]:
        """Compartment contents, one sorted list per color."""
        return color_classes(self.coloring)

    def hardened_libraries(self) -> list[str]:
        """Libraries built with at least one SH technique."""
        return sorted(name for name, techs in self.choices.items() if techs)

    def partition(self) -> frozenset[frozenset[str]]:
        """The compartment layout as an unordered set partition.

        Color *labels* are an artefact of the solver: two colorings
        that differ only by a color permutation describe the same
        physical layout.  The partition is the label-free form.
        """
        return frozenset(
            frozenset(members) for members in color_classes(self.coloring)
        )

    def key(self) -> tuple:
        """Stable, hashable identity: partition + sorted SH choices.

        Two deployments with the same key build the same image (same
        compartment grouping, same hardening), so this is the one
        cache/equality key every layer should use — the perf memo, the
        persistent cache, and result comparisons across enumeration
        paths.
        """
        return (
            self.partition(),
            tuple(sorted(self.choices.items())),
        )

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        parts = []
        for index, members in enumerate(self.compartments):
            decorated = [
                name
                + (
                    f"[{'+'.join(self.choices[name])}]"
                    if self.choices[name]
                    else ""
                )
                for name in members
            ]
            parts.append(f"compartment {index}: {', '.join(decorated)}")
        return "; ".join(parts)


def _validate_isolate(
    libdefs: list[LibraryDef], isolate: tuple[str, ...]
) -> None:
    names = {libdef.name for libdef in libdefs}
    for name in isolate:
        if name not in names:
            raise SpecError(f"isolate names unknown library {name!r}")


def _isolate_edges(
    names: list[str], isolate: tuple[str, ...]
) -> set[frozenset[str]]:
    return {
        frozenset({name, other})
        for name in isolate
        for other in names
        if other != name
    }


def iter_deployments(
    libdefs: list[LibraryDef],
    alternatives: bool = False,
    isolate: tuple[str, ...] = (),
    coloring_cache: ColoringCache | None = None,
    stats: dict | None = None,
):
    """Yield all SH-variant combinations, each minimally colored.

    "This will result in as many colorings as there are possible
    combinations of libraries."  Deployments come out in the variant
    product's order, ``()`` (unhardened) first for every library.

    ``isolate`` names libraries the user wants in their own
    compartments regardless of metadata compatibility — the paper's
    "set of predefined compartments (e.g. isolate the application and
    the network stack from everything else)".  Implemented as extra
    conflict edges, so the coloring still minimises everything else.

    The pairwise compatibility matrix is computed once over all library
    *variants* (each ``can_share`` depends only on the two specs), and
    each distinct conflict-graph signature is colored once
    (``coloring_cache``).  ``tests/core/reference.py`` keeps the
    per-combination pipeline (a fresh conflict graph and coloring per
    combination) that this must match deployment for deployment.

    ``stats``, when given, is filled with matrix and memo counters.
    """
    _validate_isolate(libdefs, isolate)
    names = [libdef.name for libdef in libdefs]
    if len(set(names)) != len(names):
        raise SpecError("duplicate library names in libdef list")
    return _iter_deployments(
        libdefs, names, alternatives, isolate, coloring_cache, stats
    )


def _iter_deployments(
    libdefs: list[LibraryDef],
    names: list[str],
    alternatives: bool,
    isolate: tuple[str, ...],
    coloring_cache: ColoringCache | None,
    stats: dict | None,
):
    """Generator body of :func:`iter_deployments` (validation is eager
    in the wrapper so bad arguments raise at call time, not first
    ``next()``)."""
    option_lists = [sh_variants(libdef, alternatives) for libdef in libdefs]
    variant_specs = {
        libdef.name: [
            transform_spec(libdef, techniques) for techniques in options
        ]
        for libdef, options in zip(libdefs, option_lists)
    }
    matrix = CompatibilityMatrix(variant_specs)
    cache = coloring_cache if coloring_cache is not None else ColoringCache()
    extra_edges = _isolate_edges(names, isolate)
    if stats is not None:
        stats["pairs_checked"] = matrix.pairs_checked
        stats["combos"] = 0
    index_ranges = [range(len(options)) for options in option_lists]
    for indices in itertools.product(*index_ranges):
        choices = {
            name: option_lists[position][index]
            for position, (name, index) in enumerate(zip(names, indices))
        }
        specs = {
            name: variant_specs[name][index]
            for name, index in zip(names, indices)
        }
        edges = matrix.edges_for(dict(zip(names, indices)))
        if extra_edges:
            edges |= extra_edges
        coloring = cache.minimum_coloring(names, edges)
        if stats is not None:
            stats["combos"] += 1
            stats["coloring_hits"] = cache.hits
            stats["coloring_misses"] = cache.misses
        yield Deployment(choices=choices, specs=specs, coloring=coloring)
