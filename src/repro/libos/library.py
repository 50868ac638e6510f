"""Micro-libraries, exports, and the link-time call plumbing.

A micro-library's public functions are declared with :func:`export`
(ordinary calls) or :func:`export_blocking` (generator-based calls that
may suspend the calling thread).  In the porting process the paper
describes, cross-micro-library function calls are replaced by gate
placeholders (``uk_gate_r(rc, listen, sockfd, 5)``); here the analogue
is resolving a :class:`Stub` through the :class:`Linker` and invoking
``stub.call("listen", sockfd, 5)``.  At build time the linker is wired
with either direct-call channels (same compartment) or isolation gates
(foreign compartment) — the caller's code is identical either way,
which is the whole point of FlexOS.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterator

from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.gates.base import Channel
    from repro.libos.compartment import Compartment
    from repro.machine.machine import Machine

#: Attribute set on exported callables; value is "plain" or "blocking".
_EXPORT_ATTR = "_flexos_export"


def export(fn: Callable) -> Callable:
    """Mark a method as a plain (non-suspending) micro-library export."""
    setattr(fn, _EXPORT_ATTR, "plain")
    return fn


def export_blocking(fn: Callable) -> Callable:
    """Mark a generator method as a blocking micro-library export.

    Blocking exports must be invoked with ``yield from
    stub.call_gen(...)`` so scheduling directives propagate to the
    run loop.
    """
    setattr(fn, _EXPORT_ATTR, "blocking")
    return fn


class MicroLibrary:
    """Base class for every micro-library (and application).

    Subclasses set :attr:`NAME`, declare exports with the decorators
    above, and may override :meth:`on_install` (allocate static memory,
    resolve stubs) and :meth:`on_boot` (post-link initialisation,
    spawn threads).

    The optional :attr:`SPEC` string is the library's FlexOS metadata
    in the paper's DSL (section 2); :attr:`TRUE_BEHAVIOR` describes the
    behaviour a static analysis would find, which the SH
    transformations use to narrow a conservative SPEC.
    """

    NAME: str = ""
    #: FlexOS metadata in the paper's DSL; parsed by repro.core.
    SPEC: str = ""
    #: Ground-truth behaviour facts for SH transformations (see
    #: repro.core.hardening); mapping with optional keys "writes",
    #: "reads", "calls".
    TRUE_BEHAVIOR: dict[str, Any] = {}
    #: API metadata for trust-boundary wrappers (paper §5): export name
    #: → list of ``(predicate, description)`` pairs, where ``predicate``
    #: takes the call's args tuple and returns True when the
    #: precondition holds.  Checked only on cross-compartment calls.
    API_CONTRACTS: dict[str, list] = {}
    #: Export name → indices of pointer-valued arguments.  At a trust
    #: boundary, pointer arguments must reference shareable memory
    #: (the confused-deputy defence of §5).
    POINTER_PARAMS: dict[str, tuple] = {}
    #: Export name → ((pointer_index, size_index_or_negative_fixed),
    #: ...) capability-delegation descriptors for the CHERI backend
    #: (see repro.gates.cheri).
    CAP_GRANTS: dict[str, tuple] = {}
    #: The class's export names in ``dir()`` order, and the blocking
    #: ones: found by one scan per class, when the class is defined.
    _export_names: tuple[str, ...] = ()
    blocking_exports: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kinds = {
            attr: getattr(getattr(cls, attr), _EXPORT_ATTR, None)
            for attr in dir(cls)
        }
        cls._export_names = tuple(attr for attr, kind in kinds.items() if kind)
        cls.blocking_exports = frozenset(
            attr for attr, kind in kinds.items() if kind == "blocking"
        )

    def __init__(self) -> None:
        if not self.NAME:
            raise ValueError(f"{type(self).__name__} must define NAME")
        self.machine: "Machine | None" = None
        self.compartment: "Compartment | None" = None
        self.linker: "Linker | None" = None
        #: Export name -> handler bound to this instance.  Bound by
        #: name, so a wrapper installed on the class is what is called.
        self.exports: dict[str, Callable] = {
            name: getattr(self, name) for name in self._export_names
        }

    # --- lifecycle ---------------------------------------------------------

    def install(
        self, machine: "Machine", compartment: "Compartment", linker: "Linker"
    ) -> None:
        """Attach the library to its compartment; called by the builder."""
        self.machine = machine
        self.compartment = compartment
        self.linker = linker
        #: Charge flat simulated time: the CPU's own ``charge``, bound
        #: here so a library charge costs one frame.
        self.charge = machine.cpu.charge
        compartment.libraries.append(self)
        self.on_install()

    def on_install(self) -> None:
        """Hook: allocate static memory, resolve nothing yet."""

    def on_boot(self) -> None:
        """Hook: runs once after all libraries are installed and linked."""

    # --- conveniences ---------------------------------------------------------

    def stub(self, callee: str) -> "Stub":
        """Resolve a stub for cross-library calls to ``callee``."""
        if self.linker is None:
            raise GateError(f"{self.NAME}: not linked yet")
        return self.linker.resolve(self, callee)

    def alloc_static(self, size: int) -> int:
        """Allocate a static (own-compartment) memory region."""
        if self.compartment is None:
            raise GateError(f"{self.NAME}: not installed yet")
        return self.compartment.alloc_region(size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = self.compartment.name if self.compartment else "uninstalled"
        return f"<{type(self).__name__} {self.NAME!r} in {where}>"


class Stub:
    """Caller-side handle for one (caller, callee) link.

    ``call`` runs a plain export synchronously; ``call_gen`` returns a
    generator for a blocking export and must be driven with ``yield
    from``.  The async surface (``submit``/``poll``/``flush``) passes
    through to the channel — on sync channels ``submit`` executes
    immediately, on a queue channel it batches, so caller code is
    identical either way.  The channel behind the stub decides what a
    call costs and which protection-domain switch it performs.
    """

    def __init__(self, channel: "Channel") -> None:
        self._channel = channel

    def call(self, fn: str, *args: Any) -> Any:
        """Invoke a plain export through the channel."""
        return self._channel.invoke(fn, args)

    def call_gen(self, fn: str, *args: Any) -> Generator:
        """Invoke a blocking export; drive with ``yield from``."""
        return self._channel.invoke_gen(fn, args)

    def submit(self, fn: str, *args: Any) -> int:
        """Enqueue a plain export; returns its completion ticket."""
        return self._channel.submit(fn, *args)

    def poll(self, max_items: int | None = None) -> list:
        """Drain ready completions from the channel."""
        return self._channel.poll(max_items)

    def flush(self) -> int:
        """Force pending submissions through (ring the doorbell)."""
        return self._channel.flush()

    def drain(self) -> list:
        """Flush + drain all completions, raising the first deferred error."""
        return self._channel.drain()

    @property
    def pending(self) -> int:
        """Submissions not yet executed (0 on sync channels)."""
        return self._channel.pending

    @property
    def supports_async(self) -> bool:
        """True when the channel actually defers and batches."""
        return self._channel.supports_async

    @property
    def channel(self) -> "Channel":
        """The underlying channel (introspection/tests)."""
        return self._channel


class Linker:
    """Holds the channel for every (caller library, callee name) edge.

    The builder populates it after deciding the compartment layout; a
    library's :meth:`MicroLibrary.stub` lookups go through here.  Keys
    are per *caller library* so that replicated services (e.g. one
    allocator per compartment, as the VM backend requires) resolve to
    the caller-local replica.
    """

    def __init__(self) -> None:
        self._channels: dict[tuple[str, str], "Channel"] = {}

    def connect(
        self, caller: str, callee: str, channel: "Channel"
    ) -> None:
        """Register the channel used when ``caller`` calls ``callee``."""
        self._channels[(caller, callee)] = channel

    def resolve(self, caller: MicroLibrary, callee: str) -> Stub:
        """Return the stub ``caller`` must use to reach ``callee``."""
        channel = self._channels.get((caller.NAME, callee))
        if channel is None:
            raise GateError(f"no link from {caller.NAME!r} to {callee!r}")
        return Stub(channel)

    def has_link(self, caller: MicroLibrary, callee: str) -> bool:
        """True when ``caller`` was linked against ``callee``.

        Lets a library degrade gracefully when an optional service is
        absent from the image (e.g. redis runs volatile without ``kv``).
        """
        return (caller.NAME, callee) in self._channels

    def edges(self) -> Iterator[tuple[str, str]]:
        """Iterate over all (caller, callee) edges."""
        return iter(self._channels.keys())
