"""Trust-boundary API guards (paper §5, "Isolation alone is not enough").

"Traditional system call APIs are designed from the outset as a trust
boundary ... when the API was previously developed without a trust
model, introducing isolation is a more complex task; isolation alone is
not enough."  And: "we only want to execute such checks when they are
really needed, depending on the instantiated kernel configuration: if
component A is together with component B in the same trust domain, then
checks are not necessary, but they are when component C (in another
domain) calls component B."

:class:`GuardedChannel` is the auto-generated wrapper the paper
envisions: the builder composes it around *cross-compartment* channels
only, so intra-compartment calls pay nothing.  Two check families:

- **preconditions** from the callee's :attr:`API_CONTRACTS` metadata
  (e.g. "recv size must be positive", "queue id must be live");
- **pointer validation** from :attr:`POINTER_PARAMS`: reference
  arguments crossing a trust boundary must point into shareable memory
  — a callee dereferencing a caller-supplied pointer into *its own*
  privileged memory is the classic confused deputy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.gates.base import Channel
from repro.machine.faults import BoundaryViolation

if TYPE_CHECKING:
    from repro.libos.library import MicroLibrary
    from repro.machine.machine import Machine


class GuardedChannel(Channel):
    """Wraps a channel with the callee's boundary checks.

    The async surface (submit/poll/flush/...) passes straight through
    to the wrapped channel — with the same precondition and pointer
    checks applied at *submission* time, before an op ever reaches the
    ring, so a rejected op is never enqueued.
    """

    KIND = "guarded"

    def __init__(
        self,
        inner: Channel,
        machine: "Machine",
        callee_lib: "MicroLibrary",
        shared_ranges: list[tuple[int, int]],
    ) -> None:
        super().__init__()
        self.inner = inner
        self.machine = machine
        self.callee_lib = callee_lib
        self.shared_ranges = list(shared_ranges)
        self.checks_performed = 0
        self.rejections = 0
        # Per-fn check steps, hoisted to construction time: contracts
        # first, then pointer params — the exact order _check_steps
        # replays, so charges and rejections are unchanged.  The check
        # metadata is class-level static, so compiling once is safe; a
        # fn missing here (never exported, no contracts) falls back to
        # the generic derivation.
        self._compiled_checks: dict[str, tuple] = {}
        fns = (
            set(callee_lib.exports)
            | set(callee_lib.API_CONTRACTS)
            | set(callee_lib.POINTER_PARAMS)
        )
        for fn in fns:
            self._compiled_checks[fn] = self._compile_checks(fn)
        self._contract_ns = machine.cost.contract_check_ns
        self._counters = machine.cpu.metrics.table

    def _compile_checks(self, fn: str) -> tuple:
        callee = self.callee_lib
        steps: list[tuple] = []
        for predicate, description in callee.API_CONTRACTS.get(fn, []):
            steps.append((True, predicate, description))
        for index in callee.POINTER_PARAMS.get(fn, ()):
            steps.append((False, None, index))
        return tuple(steps)

    @property
    def IS_BOUNDARY(self) -> bool:  # noqa: N802 - mirrors the class attr
        return self.inner.IS_BOUNDARY

    # --- checks -----------------------------------------------------------

    def _pointer_ok(self, addr: Any) -> bool:
        if not isinstance(addr, int):
            return False
        return any(start <= addr < end for start, end in self.shared_ranges)

    def _check(self, fn: str, args: tuple) -> None:
        steps = self._compiled_checks.get(fn)
        if steps is None:
            steps = self._compile_checks(fn)
        if not steps:
            return
        cpu = self.machine.cpu
        contract_ns = self._contract_ns
        counters = self._counters
        callee_name = self.callee_lib.NAME
        for is_contract, predicate, payload in steps:
            cpu.charge(contract_ns)
            counters["boundary_checks"] = (
                counters.get("boundary_checks", 0.0) + 1.0
            )
            self.checks_performed += 1
            if not is_contract:
                # Pointer-validation step: payload is the arg index.
                if payload >= len(args) or not self._pointer_ok(args[payload]):
                    self.rejections += 1
                    raise BoundaryViolation(
                        callee_name,
                        fn,
                        f"pointer argument {payload} does not reference "
                        f"shareable memory",
                    )
                continue
            try:
                ok = bool(predicate(args))
            except Exception:
                ok = False
            if not ok:
                self.rejections += 1
                raise BoundaryViolation(callee_name, fn, payload)

    # --- channel interface ------------------------------------------------------

    def invoke(self, fn: str, args: tuple) -> Any:
        self._check(fn, args)
        return self.inner.invoke(fn, args)

    def invoke_gen(self, fn: str, args: tuple) -> Generator:
        self._check(fn, args)
        return (yield from self.inner.invoke_gen(fn, args))

    # --- async surface: check at submission, then pass through ----------------

    def capabilities(self) -> frozenset:
        return self.inner.capabilities()

    def submit(self, fn: str, *args: Any) -> int:
        self._check(fn, args)
        return self.inner.submit(fn, *args)

    def poll(self, max_items: int | None = None) -> list:
        return self.inner.poll(max_items)

    def flush(self) -> int:
        return self.inner.flush()

    @property
    def pending(self) -> int:
        return self.inner.pending

    @property
    def completions_ready(self) -> int:
        return self.inner.completions_ready

    @property
    def crossings(self) -> int:
        return getattr(self.inner, "crossings", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GuardedChannel({self.inner!r})"
