"""Gate registry: backend name → gate class, and the channel factory.

:func:`make_channel` is the ONE way to construct an inter-library
channel — direct calls, profile channels, every isolation gate, and
batched queue variants (``"queue:<backend>"``) — with API guards folded
in via :class:`GateOptions`.  Direct gate class instantiation raises
:class:`GateError` (the factory guard in :mod:`repro.gates.base`).

Options are validated here: unknown option names and non-default values
of options the chosen backend cannot honour both raise
:class:`GateError` listing what *is* applicable, mirroring the
unknown-kind error, so misconfiguration fails at build time rather than
silently doing nothing.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.gates.base import _FACTORY, WORD_BYTES, Gate, GateOptions
from repro.gates.cheri import CHERIGate
from repro.gates.funccall import DirectChannel, ProfileChannel
from repro.gates.mpk_shared import MPKSharedStackGate
from repro.gates.mpk_switched import MPKSwitchedStackGate
from repro.gates.queue import QueueChannel
from repro.gates.vm_rpc import VMRPCGate
from repro.machine.faults import GateError

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine

#: All selectable gate backends, by configuration name.  Queue variants
#: are spelled ``"queue:<backend>"`` and wrap any boundary entry here.
GATE_KINDS: dict[str, type[Gate]] = {
    DirectChannel.KIND: DirectChannel,
    ProfileChannel.KIND: ProfileChannel,
    CHERIGate.KIND: CHERIGate,
    MPKSharedStackGate.KIND: MPKSharedStackGate,
    MPKSwitchedStackGate.KIND: MPKSwitchedStackGate,
    VMRPCGate.KIND: VMRPCGate,
}

#: Options every backend honours.
_COMMON_OPTIONS = frozenset({"clear_registers", "api_guards", "shared_ranges"})
#: Kind-specific options; anything not listed for a kind (nor common)
#: is rejected when set to a non-default value.
_KIND_OPTIONS: dict[str, frozenset[str]] = {
    "queue": frozenset({"queue_depth", "queue_batch"}),
}

_OPTION_FIELDS = {field.name: field for field in dataclasses.fields(GateOptions)}
#: Every option at its default: what an inapplicable option must equal.
_DEFAULT_OPTIONS = GateOptions()


def _applicable_options(kind: str) -> frozenset[str]:
    """Option names ``kind`` honours (compound kinds union both sides)."""
    names = set(_COMMON_OPTIONS)
    if kind.startswith("queue:"):
        names |= _KIND_OPTIONS["queue"]
    return frozenset(names)


#: The options plain kinds and ``queue:`` kinds cannot honour, in
#: field order, built once.
_PLAIN_INAPPLICABLE, _QUEUE_INAPPLICABLE = (
    tuple(name for name in _OPTION_FIELDS if name not in _applicable_options(kind))
    for kind in ("", "queue:")
)


def _coerce_options(kind: str, options) -> GateOptions:
    """Validate ``options`` (GateOptions or dict) against ``kind``.

    Raises :class:`GateError` for unknown option names and for
    non-default values of options the backend cannot honour.
    """
    if options is None:
        return GateOptions()
    if isinstance(options, dict):
        unknown = sorted(set(options) - set(_OPTION_FIELDS))
        if unknown:
            raise GateError(
                f"unknown gate option(s) {unknown}; "
                f"known: {sorted(_OPTION_FIELDS)}"
            )
        options = GateOptions(**options)
    elif not isinstance(options, GateOptions):
        raise GateError(
            f"options must be a GateOptions or dict, not "
            f"{type(options).__name__}"
        )
    queued = kind.startswith("queue:")
    for name in _QUEUE_INAPPLICABLE if queued else _PLAIN_INAPPLICABLE:
        if getattr(options, name) != getattr(_DEFAULT_OPTIONS, name):
            raise GateError(
                f"option {name!r} does not apply to gate kind {kind!r}; "
                f"applicable: {sorted(_applicable_options(kind))}"
            )
    return options


def relative_crossing_cost(kind: str, cost=None, batch: int = 1) -> float:
    """Estimated round-trip nanoseconds of one crossing through ``kind``.

    A static stand-in for what the gates actually charge at runtime
    (fixed parts only, one word of arguments, default options), so the
    analytic explorer can rank deployments consistently with the
    backend they will really run on — a VM-RPC crossing is ~two orders
    of magnitude dearer than an MPK one, and a cost estimator that
    weighs them equally inverts rankings the measured path gets right.
    ``"none"``/``"direct"``/``"profile"`` crossings are plain function
    calls.

    ``"queue:<backend>"`` kinds return the *amortised per-operation*
    cost at the given ``batch`` size: the wrapped backend's crossing
    divided by the batch, plus the fixed ring traffic every operation
    pays (SQE store+load, CQE store+load).  This is what lets the
    explorer trade a sync edge against its batched variant per edge.
    """
    if cost is None:
        from repro.machine.cycles import CostModel

        cost = CostModel()
    if kind.startswith("queue:"):
        inner = kind.split(":", 1)[1]
        inner_cost = relative_crossing_cost(inner, cost)
        if inner in ("none", DirectChannel.KIND):
            raise GateError(
                f"queue channels wrap boundary backends; {inner!r} "
                "crosses no boundary"
            )
        ring = 2 * (cost.mem_op_ns + QueueChannel.SQE_BYTES * cost.mem_byte_ns)
        ring += 2 * (cost.mem_op_ns + QueueChannel.CQE_BYTES * cost.mem_byte_ns)
        return ring + inner_cost / max(1, batch)
    base = cost.call_ns + cost.ret_ns
    if kind in ("none", DirectChannel.KIND, ProfileChannel.KIND):
        return base
    if kind == MPKSharedStackGate.KIND:
        return base + cost.gate_dispatch_ns + 2 * cost.wrpkru_ns
    if kind == MPKSwitchedStackGate.KIND:
        copy_ns = cost.mem_op_ns + WORD_BYTES * cost.mem_byte_ns * 2
        return (
            base
            + cost.gate_dispatch_ns
            + 2 * cost.wrpkru_ns
            + 2 * (cost.stack_switch_ns + copy_ns)
        )
    if kind == CHERIGate.KIND:
        return base + 2 * cost.cheri_crossing_ns + cost.cheri_grant_ns
    if kind == VMRPCGate.KIND:
        return base + 2 * (cost.vm_notify_ns + WORD_BYTES * cost.vm_copy_byte_ns)
    raise GateError(
        f"unknown gate kind {kind!r}; known: "
        f"{sorted(GATE_KINDS) + ['none']} plus queue:<kind> variants"
    )


def make_channel(
    kind: str,
    machine: "Machine",
    caller: "MicroLibrary",
    callee: "MicroLibrary",
    *,
    options: GateOptions | dict | None = None,
):
    """Build the channel connecting ``caller`` to ``callee``.

    The single construction path for every channel kind — ``direct``,
    ``profile``, all isolation gates, and batched ``"queue:<backend>"``
    variants — so callers never touch gate classes.  When
    ``options.api_guards`` is set and the channel crosses a compartment
    boundary, the result is wrapped in a
    :class:`~repro.gates.guard.GuardedChannel` (paper §5 wrappers)
    checking preconditions and pointer provenance against
    ``options.shared_ranges``; guards wrap *outside* the queue so
    checks run at submission time.  Same-compartment direct channels
    never get guards.

    ``options`` may be a :class:`GateOptions` or a plain dict of field
    names; unknown names and backend-inapplicable non-default values
    raise :class:`GateError`.
    """
    queue_inner: str | None = None
    gate_kind = kind
    if kind == "queue":
        raise GateError(
            "queue channels wrap a backend: spell the kind "
            "'queue:<backend>', e.g. 'queue:mpk-shared'"
        )
    if kind.startswith("queue:"):
        queue_inner = kind.split(":", 1)[1]
        gate_kind = queue_inner
    gate_cls = GATE_KINDS.get(gate_kind)
    if gate_cls is None:
        raise GateError(
            f"unknown gate kind {gate_kind!r}; known: {sorted(GATE_KINDS)} "
            "plus queue:<kind> variants"
        )
    options = _coerce_options(kind, options)
    _FACTORY.active = True
    try:
        channel = gate_cls(machine, caller, callee, options)
        if queue_inner is not None:
            channel = QueueChannel(machine, channel, options)
    finally:
        _FACTORY.active = False
    if options.api_guards and channel.IS_BOUNDARY:
        from repro.gates.guard import GuardedChannel

        channel = GuardedChannel(
            channel, machine, callee, list(options.shared_ranges)
        )
    return channel
