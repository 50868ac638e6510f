"""Build configuration: everything FlexOS decides at build time.

"FlexOS's build system extends Unikraft's to allow specifying how many
compartments the resulting image should have, how they should be
isolated, and whether SH techniques should be applied to one or
multiple of these" (§2).
"""

from __future__ import annotations

import dataclasses

from repro.core.errors import BuildError
from repro.machine.cycles import CostModel

#: Valid isolation backends (gate kinds between compartments).
BACKENDS = ("none", "mpk-shared", "mpk-switched", "vm-rpc", "cheri")
#: Valid allocator policies.
ALLOC_POLICIES = ("per-compartment", "global")
#: Valid scheduler flavours.
SCHEDULERS = ("coop", "verified")
#: Valid compartment failure policies (see repro.libos.compartment).
FAILURE_POLICIES = ("propagate", "isolate", "restart-with-backoff")

def parse_queue_policy(policy: str) -> int:
    """Parse a queue-edge flush policy ``"batch:N"``; returns ``N``.

    Raises :class:`BuildError` on malformed policies so config files
    fail at validation, not at link time.
    """
    key, _, value = policy.strip().partition(":")
    try:
        batch = int(value)
    except ValueError:
        batch = 0
    if key != "batch" or batch < 1:
        raise BuildError(
            f"malformed queue policy {policy!r}; expected 'batch:N' "
            f"with N >= 1"
        )
    return batch


#: MPK protection key reserved for the shared-data domain.
SHARED_PKEY = 14
#: MPK protection key reserved for the shared stack domain.
STACK_PKEY = 15
#: First key handed to compartments (0 stays the untagged default).
FIRST_COMPARTMENT_PKEY = 1
#: Maximum number of compartments under the MPK backend.
MAX_MPK_COMPARTMENTS = SHARED_PKEY - FIRST_COMPARTMENT_PKEY


@dataclasses.dataclass
class BuildConfig:
    """One point in the FlexOS design space.

    Attributes:
        libraries: micro-libraries/apps to link (by registry name).
            ``sched`` and ``alloc`` are always included implicitly.
        compartments: explicit grouping of library names; ``None``
            derives the grouping automatically from the libraries'
            metadata via compatibility analysis + graph coloring.
        backend: isolation mechanism between compartments.
        hardening: library name → SH techniques; techniques apply to
            the whole compartment holding that library (SH is a
            compile-time property of a protection domain).
        allocator_policy: one allocator per compartment, or a single
            global one (only legal without hardware isolation).
        scheduler: ``coop`` (C scheduler) or ``verified`` (contract-
            checked, the paper's Dafny scheduler).
        clear_registers: scrub registers at MPK gate crossings.
        failure_policy: what happens when a fault escapes a
            compartment — ``propagate`` (raw fault, whole-image crash,
            the default), ``isolate`` (translate to
            ``CompartmentFailure``, fail fast afterwards) or
            ``restart-with-backoff`` (isolate + revive the compartment
            after an exponential backoff).  Applied image-wide;
            individual compartments can be overridden programmatically.
    """

    libraries: list[str] = dataclasses.field(default_factory=list)
    compartments: list[list[str]] | None = None
    backend: str = "none"
    hardening: dict[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    allocator_policy: str = "per-compartment"
    scheduler: str = "coop"
    clear_registers: bool = True
    #: Generate API boundary guards (precondition + pointer checks) on
    #: cross-compartment calls — the paper's §5 "isolation alone is not
    #: enough" wrappers, included only where a trust boundary exists.
    api_guards: bool = False
    heap_size: int = 4 * 1024 * 1024
    shared_heap_size: int = 8 * 1024 * 1024
    phys_bytes: int = 128 * 1024 * 1024
    cost: CostModel | None = None
    failure_policy: str = "propagate"
    #: Cross-compartment edges to serve through batched queue channels
    #: (``"caller->callee"`` → ``"batch:N"``).  Each listed
    #: edge gets an async submission/completion ring pair over the
    #: image backend (kind ``queue:<backend>``); unlisted edges stay
    #: synchronous.  Same-compartment edges cannot be queued.
    queue_edges: dict[str, str] = dataclasses.field(default_factory=dict)
    name: str = ""

    def to_dict(self) -> dict:
        """JSON-friendly form (cost model omitted; it stays in code)."""
        return {
            "libraries": list(self.libraries),
            "compartments": (
                [list(group) for group in self.compartments]
                if self.compartments is not None
                else None
            ),
            "backend": self.backend,
            "hardening": {
                lib: list(techniques)
                for lib, techniques in self.hardening.items()
            },
            "allocator_policy": self.allocator_policy,
            "scheduler": self.scheduler,
            "clear_registers": self.clear_registers,
            "api_guards": self.api_guards,
            "heap_size": self.heap_size,
            "shared_heap_size": self.shared_heap_size,
            "phys_bytes": self.phys_bytes,
            "failure_policy": self.failure_policy,
            "queue_edges": dict(self.queue_edges),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BuildConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise BuildError(f"unknown config keys: {sorted(unknown)}")
        payload = dict(data)
        if "hardening" in payload:
            payload["hardening"] = {
                lib: tuple(techniques)
                for lib, techniques in payload["hardening"].items()
            }
        if payload.get("compartments") is not None:
            payload["compartments"] = [
                list(group) for group in payload["compartments"]
            ]
        return cls(**payload)

    def all_libraries(self) -> list[str]:
        """Requested libraries plus the implicit sched/alloc."""
        names = list(self.libraries)
        for implicit in ("sched", "alloc"):
            if implicit not in names:
                names.append(implicit)
        return names

    def validate(self) -> None:
        """Raise :class:`BuildError` on inconsistent configurations."""
        if self.backend not in BACKENDS:
            raise BuildError(
                f"unknown backend {self.backend!r}; valid: {BACKENDS}"
            )
        if self.allocator_policy not in ALLOC_POLICIES:
            raise BuildError(
                f"unknown allocator policy {self.allocator_policy!r}; "
                f"valid: {ALLOC_POLICIES}"
            )
        if self.scheduler not in SCHEDULERS:
            raise BuildError(
                f"unknown scheduler {self.scheduler!r}; valid: {SCHEDULERS}"
            )
        if self.failure_policy not in FAILURE_POLICIES:
            raise BuildError(
                f"unknown failure policy {self.failure_policy!r}; "
                f"valid: {FAILURE_POLICIES}"
            )
        if self.allocator_policy == "global" and self.backend != "none":
            raise BuildError(
                "a global allocator requires backend 'none': with hardware "
                "isolation each compartment's heap must live in its own "
                "protection domain (paper §3)"
            )
        if self.heap_size <= 0 or self.shared_heap_size <= 0:
            raise BuildError("heap sizes must be positive")
        if self.compartments is not None:
            named = [lib for group in self.compartments for lib in group]
            if len(named) != len(set(named)):
                raise BuildError("a library appears in two compartments")
            missing = set(self.all_libraries()) - set(named)
            if missing:
                raise BuildError(
                    f"compartment grouping misses libraries: {sorted(missing)}"
                )
            extra = set(named) - set(self.all_libraries())
            if extra:
                raise BuildError(
                    f"compartment grouping names unknown libraries: "
                    f"{sorted(extra)}"
                )
            if (
                self.backend in ("mpk-shared", "mpk-switched")
                and len(self.compartments) > MAX_MPK_COMPARTMENTS
            ):
                raise BuildError(
                    f"MPK supports at most {MAX_MPK_COMPARTMENTS} "
                    f"compartments (16 keys minus reserved)"
                )
        for lib in self.hardening:
            if lib not in self.all_libraries():
                raise BuildError(
                    f"hardening names library {lib!r} not in the image"
                )
        for edge, policy in self.queue_edges.items():
            caller, sep, callee = edge.partition("->")
            if not sep or not caller or not callee:
                raise BuildError(
                    f"malformed queue edge {edge!r}; expected 'caller->callee'"
                )
            if caller not in self.all_libraries():
                raise BuildError(
                    f"queue edge {edge!r} names library {caller!r} not in "
                    f"the image"
                )
            parse_queue_policy(policy)
