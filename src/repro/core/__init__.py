"""FlexOS core: the paper's primary contribution.

- the metadata/spec language (:mod:`metadata`, :mod:`spec_parser`);
- pairwise compatibility + conflict graph (:mod:`compatibility`);
- compartment minimization by graph coloring (:mod:`coloring`);
- SH spec transformations + deployment enumeration (:mod:`hardening`);
- design-space exploration strategies (:mod:`explorer`);
- the build system (:mod:`config`, :mod:`builder`, :mod:`image`).
"""

from repro.core.autobench import build_for_deployment, simulated_perf_fn
from repro.core.builder import (
    LIBRARY_TYPES,
    auto_compartments,
    build_image,
    library_defs,
    register_library,
)
from repro.core.coloring import (
    color_classes,
    dsatur_coloring,
    exact_coloring,
    minimum_coloring,
    verify_coloring,
)
from repro.core.compatibility import (
    Violation,
    can_share,
    conflict_graph,
    explain_conflict,
    violations,
)
from repro.core.config import BuildConfig
from repro.core.errors import BuildError, CompatibilityError, FlexOSError, SpecError
from repro.core.explorer import (
    DEVICE_PROFILES,
    Explorer,
    backend_for_device,
    crossing_cost_fn,
    requirement_satisfied,
    security_score,
)
from repro.core.hardening import (
    Deployment,
    LibraryDef,
    iter_deployments,
    sh_variants,
    transform_spec,
)
from repro.core.image import Image
from repro.core.inference import (
    MetadataRecorder,
    Observation,
    SpecFinding,
    profiling_image,
)
from repro.core.metadata import LibrarySpec, Region, Requires
from repro.core.spec_parser import parse_spec

__all__ = [
    "BuildConfig",
    "BuildError",
    "CompatibilityError",
    "DEVICE_PROFILES",
    "Deployment",
    "Explorer",
    "FlexOSError",
    "Image",
    "LIBRARY_TYPES",
    "LibraryDef",
    "LibrarySpec",
    "MetadataRecorder",
    "Observation",
    "Region",
    "Requires",
    "SpecError",
    "SpecFinding",
    "Violation",
    "auto_compartments",
    "backend_for_device",
    "build_for_deployment",
    "build_image",
    "can_share",
    "color_classes",
    "conflict_graph",
    "crossing_cost_fn",
    "dsatur_coloring",
    "exact_coloring",
    "explain_conflict",
    "iter_deployments",
    "library_defs",
    "minimum_coloring",
    "parse_spec",
    "profiling_image",
    "register_library",
    "requirement_satisfied",
    "security_score",
    "sh_variants",
    "simulated_perf_fn",
    "transform_spec",
    "verify_coloring",
    "violations",
]
