"""The span tracer: Chrome-trace-shaped events on the simulated clock.

Timestamps come from the simulated CPU clock, so a trace is a faithful
picture of *simulated* time — where gate crossings, scheduler quanta,
and allocator calls land relative to each other — not of host time.
Recording never charges the clock, and every hook is guarded by
:attr:`Tracer.enabled`, so a disabled tracer is a no-op and an enabled
one changes no simulated timing either.

Tracks: each simulated thread gets its own track (Chrome ``tid``), so
spans opened by a thread before it blocks close correctly after it
resumes — other threads' events land on other tracks in between.  Track
``HOST_TRACK`` carries host-side/boot activity; ``SCHED_TRACK`` carries
the scheduler's per-quantum slices.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

#: Track for host-side activity (boot, harness calls).
HOST_TRACK = 0
#: Track for scheduler quantum slices (kept clear of thread tids).
SCHED_TRACK = 1_000_000


class Tracer:
    """Records trace events against a simulated-nanosecond clock.

    Events are stored as dicts in (roughly) Chrome trace-event shape
    with ``ts``/``dur`` in simulated **nanoseconds**; the exporter
    converts to the microseconds the format specifies.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._enabled = False
        #: Optional zero-arg hook fired whenever :attr:`enabled` flips.
        #: The machine's :class:`~repro.obs.Observability` points it at
        #: its epoch bump so compiled gate crossings know to re-resolve
        #: whether an observer is live.
        self._on_toggle: Callable[[], None] | None = None
        self.events: list[dict] = []
        self.track_names: dict[int, str] = {
            HOST_TRACK: "host",
            SCHED_TRACK: "scheduler",
        }
        self._track = HOST_TRACK
        #: Per-track stack of open (name, cat) spans.
        self._open: dict[int, list[tuple[str, str]]] = {}

    # --- lifecycle ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self._on_toggle is not None:
            self._on_toggle()

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded events and open-span bookkeeping."""
        self.events.clear()
        self._open.clear()
        self._track = HOST_TRACK

    @property
    def now_ns(self) -> float:
        """Current simulated time."""
        return self._clock()

    # --- tracks -----------------------------------------------------------

    def set_track(self, tid: int, name: str | None = None) -> None:
        """Route subsequent events to track ``tid`` (a simulated thread)."""
        if not self.enabled:
            return
        self._track = tid
        if name is not None:
            self.track_names[tid] = name

    @property
    def current_track(self) -> int:
        return self._track

    # --- events -----------------------------------------------------------

    def begin(self, name: str, cat: str, track: int | None = None, **args) -> None:
        """Open a span on the (current) track."""
        if not self.enabled:
            return
        tid = self._track if track is None else track
        self._open.setdefault(tid, []).append((name, cat))
        event = {"name": name, "cat": cat, "ph": "B", "ts": self._clock(), "tid": tid}
        if args:
            event["args"] = args
        self.events.append(event)

    def end(self, track: int | None = None, **args) -> None:
        """Close the most recent open span on the (current) track."""
        if not self.enabled:
            return
        tid = self._track if track is None else track
        stack = self._open.get(tid)
        if not stack:
            raise RuntimeError(f"tracer: end() with no open span on track {tid}")
        name, cat = stack.pop()
        event = {"name": name, "cat": cat, "ph": "E", "ts": self._clock(), "tid": tid}
        if args:
            event["args"] = args
        self.events.append(event)

    def complete(
        self,
        name: str,
        cat: str,
        start_ns: float,
        track: int | None = None,
        **args,
    ) -> None:
        """Record a finished span from ``start_ns`` to now (phase X)."""
        if not self.enabled:
            return
        tid = self._track if track is None else track
        now = self._clock()
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_ns,
            "dur": max(0.0, now - start_ns),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def instant(self, name: str, cat: str, track: int | None = None, **args) -> None:
        """Record a point-in-time event."""
        if not self.enabled:
            return
        tid = self._track if track is None else track
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": self._clock(),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def counter(self, name: str, values: dict[str, float], track: int | None = None) -> None:
        """Record a counter sample (rendered as a stacked area track)."""
        if not self.enabled:
            return
        tid = self._track if track is None else track
        self.events.append(
            {
                "name": name,
                "ph": "C",
                "ts": self._clock(),
                "tid": tid,
                "args": dict(values),
            }
        )

    @contextlib.contextmanager
    def span(self, name: str, cat: str, **args) -> Iterator[None]:
        """Context manager sugar around :meth:`begin`/:meth:`end`."""
        if not self.enabled:
            yield
            return
        self.begin(name, cat, **args)
        try:
            yield
        finally:
            self.end()

    # --- introspection ------------------------------------------------------

    def open_spans(self) -> list[tuple[int, str, str]]:
        """Spans begun but not yet ended, innermost last per track.

        Gates close their spans even when a thread is destroyed while
        parked inside them (``GeneratorExit`` unwinds every
        ``invoke_gen`` frame), so after a clean kill this should be
        empty.  The exporter still auto-closes any stragglers at export
        time so the JSON stays balanced regardless.
        """
        return [
            (tid, name, cat)
            for tid, stack in self._open.items()
            for name, cat in stack
        ]
