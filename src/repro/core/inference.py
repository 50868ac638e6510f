"""Semi-automatic metadata generation from execution traces (paper §5).

"The process of writing metadata is error prone, and methods for
(semi-)automatically generating them should be explored."  This module
is one such method, in the spirit of SOAAP's dynamic analysis: run the
library under a representative workload in a *profiling image* (one
compartment per library, no isolation cost), record every memory
access and cross-library call, and emit:

- an observed :class:`~repro.core.metadata.LibrarySpec` (memory
  regions actually touched, calls actually made);
- ``TRUE_BEHAVIOR``-shaped facts usable by the SH transformations;
- a validation report comparing observations against the developer's
  declared metadata — a declared spec *narrower* than observed
  behaviour is exactly the metadata bug the paper worries about
  ("who verifies the specification/metadata?").

Inferred metadata is a lower bound (a trace only shows what the
workload exercised), so the report treats "observed ⊄ declared" as an
error and "declared broader than observed" as potential
over-approximation worth reviewing.  The tier-1 conformance test runs
every world family in a profiling image, under the loads of
:mod:`repro.tools.infer`, and also fails on a concrete declared call
that no family makes.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.metadata import LibrarySpec, Region

if TYPE_CHECKING:
    from repro.core.image import Image


@dataclasses.dataclass
class Observation:
    """Everything recorded about one library during profiling."""

    name: str
    reads: set[Region] = dataclasses.field(default_factory=set)
    writes: set[Region] = dataclasses.field(default_factory=set)
    calls: set[str] = dataclasses.field(default_factory=set)
    entry_points: set[str] = dataclasses.field(default_factory=set)
    access_count: int = 0

    def spec(self) -> LibrarySpec:
        """The observed behaviour as a LibrarySpec (no Requires)."""
        return LibrarySpec(
            name=self.name,
            reads=frozenset(self.reads) or frozenset({Region.OWN}),
            writes=frozenset(self.writes) or frozenset({Region.OWN}),
            calls=frozenset(self.calls),
            api=tuple(sorted(self.entry_points)),
        )

    def behavior_facts(self) -> dict:
        """TRUE_BEHAVIOR-shaped facts for the SH transformations."""
        return {
            "reads": sorted(str(region) for region in self.reads) or ["Own"],
            "writes": sorted(str(region) for region in self.writes) or ["Own"],
            "calls": sorted(self.calls),
        }


@dataclasses.dataclass
class SpecFinding:
    """One discrepancy between declared and observed metadata."""

    library: str
    severity: str  # "error" (unsound declaration) or "note" (over-approx)
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display
        return f"[{self.severity}] {self.library}: {self.detail}"


class MetadataRecorder:
    """Records per-library behaviour while an image runs.

    Intended for *profiling images* in which every library sits in its
    own compartment (so compartment-level monitors are library-level),
    e.g. built by :func:`profiling_image`.
    """

    def __init__(self, image: "Image") -> None:
        self.image = image
        self.observations: dict[str, Observation] = {}
        self._attached = False

    def _classify(self, compartment, vaddr: int) -> Region:
        if compartment.owns_address(vaddr):
            return Region.OWN
        shared = compartment.shared_allocator
        if shared is not None and shared.contains(vaddr):
            return Region.SHARED
        return Region.ALL  # reaches foreign memory: unbounded

    def attach(self) -> None:
        """Install access and call monitors on every compartment."""
        if self._attached:
            return
        self._attached = True
        for compartment in self.image.compartments:
            # Per-compartment allocator replicas live everywhere; they
            # perform no machine accesses of their own, so attribute
            # the compartment to its substantive library.
            names = [
                name
                for name in compartment.library_names()
                if name != "alloc"
            ] or ["alloc"]
            label = names[0] if len(names) == 1 else "+".join(names)
            observation = self.observations.setdefault(
                label, Observation(name=label)
            )

            def monitor(
                machine,
                kind,
                vaddr,
                size,
                observation=observation,
                compartment=compartment,
            ):
                region = self._classify(compartment, vaddr)
                observation.access_count += 1
                if kind == "load":
                    observation.reads.add(region)
                else:
                    observation.writes.add(region)

            def call_monitor(caller, callee, fn, observation=observation):
                observation.calls.add(f"{callee}::{fn}")
                target = self.observations.setdefault(
                    callee, Observation(name=callee)
                )
                target.entry_points.add(fn)

            compartment.profile.monitors.append(monitor)
            compartment.profile.call_monitors.append(call_monitor)

    def observed(self, library: str) -> Observation:
        """The observation record for a library (empty if never seen)."""
        return self.observations.get(library, Observation(name=library))

    # --- validation against declared metadata ----------------------------------

    def validate_declared(self, library: str) -> list[SpecFinding]:
        """Compare a library's declared SPEC against its observations."""
        from repro.core.spec_parser import parse_spec

        instance = self.image.lib(library)
        declared = parse_spec(library, instance.SPEC)
        observation = self.observed(library)
        findings: list[SpecFinding] = []

        for kind, observed_set, declared_ok in (
            ("read", observation.reads, declared.reads_region),
            ("write", observation.writes, declared.writes_region),
        ):
            for region in sorted(observed_set, key=str):
                if not declared_ok(region):
                    findings.append(
                        SpecFinding(
                            library,
                            "error",
                            f"observed {kind} of {region} memory not covered "
                            f"by the declared spec",
                        )
                    )
        if declared.calls is not None:
            undeclared = observation.calls - set(declared.calls)
            for target in sorted(undeclared):
                findings.append(
                    SpecFinding(
                        library,
                        "error",
                        f"observed call to {target} not in declared call list",
                    )
                )
        # Over-approximation notes.
        if declared.writes_everything and Region.ALL not in observation.writes:
            findings.append(
                SpecFinding(
                    library,
                    "note",
                    "declares Write(*) but only bounded writes were observed "
                    "— an SH-hardened variant could be co-located "
                    "(see repro.core.hardening)",
                )
            )
        if declared.calls is None and observation.calls:
            findings.append(
                SpecFinding(
                    library,
                    "note",
                    f"declares Call * but only "
                    f"{len(observation.calls)} concrete targets were observed",
                )
            )
        return findings


def profiling_image(libraries: list[str], **config_overrides):
    """Build a one-compartment-per-library image with a recorder.

    Returns ``(image, recorder)``; the recorder is already attached.
    Backend "none" keeps the profiling run cheap and non-intrusive.
    """
    from repro.core.builder import build_image
    from repro.core.config import BuildConfig

    config = BuildConfig(
        libraries=libraries, backend="none", **config_overrides
    )
    config.compartments = [[name] for name in config.all_libraries()]
    image = build_image(config)
    recorder = MetadataRecorder(image)
    recorder.attach()
    return image, recorder
