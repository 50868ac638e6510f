"""Hierarchical timer wheel for the cooperative scheduler.

Replaces the heapq timer list: :meth:`TimerWheel.schedule` is O(1)
(bucket append, no sift), and :meth:`TimerWheel.collect` advances the
wheel by sweeping at most 64 slots per level regardless of how far the
tickless-idle clock jumped.  Four levels of 64 slots at 64 ns
resolution cover ~1.07 simulated seconds before the top level wraps;
entries further out sit in the top level and cascade down as the wheel
turns (``cascades`` counts those re-files — host-side telemetry only).
With nothing armed, :meth:`collect` only moves the cursor: an idle
scheduler round pays no sweep (``sweeps`` counts the ones that ran).

Semantics preserved from the heap implementation:

- due timers fire in exact ``(deadline_ns, seq)`` order (the collected
  batch is sorted before it is returned);
- deadlines are floats — an entry can share the current tick yet still
  lie microscopically in the future, so :meth:`collect` filters by the
  actual deadline, not the tick.

One deliberate behaviour change (the dead-timer bug fix): an entry
whose wait queue has emptied — its sleeper was killed or woken through
another path — is dropped when its slot is swept instead of "firing"
for nobody, and :meth:`live_count` / :meth:`next_live_deadline` prune
such entries so ``pending_timers`` never over-reports and tickless
idle never advances the clock to a deadline nobody is waiting for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.libos.sched.base import WaitQueue

#: log2 of the slots per level.
LEVEL_BITS = 6
#: Slots per level.
SLOTS = 1 << LEVEL_BITS
#: Number of levels (spans ~64**4 ticks before the top level wraps).
LEVELS = 4
#: Default tick width in simulated nanoseconds.
RESOLUTION_NS = 64.0


class TimerEntry:
    """One armed one-shot timer."""

    __slots__ = ("deadline_ns", "seq", "waitq", "tick")

    def __init__(self, deadline_ns: float, seq: int, waitq: "WaitQueue") -> None:
        self.deadline_ns = deadline_ns
        self.seq = seq
        self.waitq = waitq
        self.tick = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimerEntry({self.deadline_ns}, seq={self.seq}, {self.waitq!r})"


class TimerWheel:
    """Hashed hierarchical timer wheel over float nanosecond deadlines."""

    def __init__(self, resolution_ns: float = RESOLUTION_NS) -> None:
        self._resolution = resolution_ns
        self._slots: list[list[list[TimerEntry]]] = [
            [[] for _ in range(SLOTS)] for _ in range(LEVELS)
        ]
        #: Entries whose tick has been reached but whose (fractional)
        #: deadline may still lie within the current tick.
        self._due: list[TimerEntry] = []
        self._cur_tick = 0
        self._count = 0
        #: Entries re-filed from a higher level as the wheel turned.
        self.cascades = 0
        #: Level sweeps run by :meth:`_advance` (host-side telemetry).
        self.sweeps = 0

    def __len__(self) -> int:
        """Raw armed-entry count (dead entries included until pruned)."""
        return self._count

    # --- placement ----------------------------------------------------------

    def _place(self, entry: TimerEntry) -> None:
        delta = entry.tick - self._cur_tick
        if delta <= 0:
            self._due.append(entry)
            return
        span = SLOTS
        for level in range(LEVELS):
            if delta < span or level == LEVELS - 1:
                slot = (entry.tick >> (LEVEL_BITS * level)) & (SLOTS - 1)
                self._slots[level][slot].append(entry)
                return
            span <<= LEVEL_BITS

    def schedule(self, deadline_ns: float, seq: int, waitq: "WaitQueue") -> None:
        """Arm a one-shot timer waking ``waitq`` at ``deadline_ns``."""
        entry = TimerEntry(deadline_ns, seq, waitq)
        entry.tick = int(deadline_ns / self._resolution)
        self._count += 1
        self._place(entry)

    # --- advancing ----------------------------------------------------------

    def _advance(self, target_tick: int) -> None:
        self.sweeps += 1
        cur = self._cur_tick
        self._cur_tick = target_tick
        for level in range(LEVELS):
            shift = LEVEL_BITS * level
            cur_l = cur >> shift
            target_l = target_tick >> shift
            steps = target_l - cur_l
            if steps <= 0:
                continue
            slots = self._slots[level]
            if steps >= SLOTS:
                indices = range(SLOTS)
            else:
                mask = SLOTS - 1
                indices = [(cur_l + 1 + k) & mask for k in range(steps)]
            for index in indices:
                bucket = slots[index]
                if not bucket:
                    continue
                slots[index] = []
                for entry in bucket:
                    if entry.tick <= target_tick:
                        self._due.append(entry)
                    else:
                        # Still in the future: re-file relative to the
                        # new position (a cascade when it moves down).
                        if level:
                            self.cascades += 1
                        self._place(entry)

    def collect(self, now_ns: float) -> list[TimerEntry]:
        """Advance to ``now_ns``; return due *live* entries in fire order.

        Dead entries (empty wait queue) reaching their deadline are
        dropped here — the fix for ``pending_timers`` over-reporting —
        and never returned.  The returned batch is sorted by
        ``(deadline_ns, seq)``, the heap implementation's exact order.
        An empty wheel moves its cursor exactly as a sweep would and
        returns at once.
        """
        target = int(now_ns / self._resolution)
        if not self._count:
            if target > self._cur_tick:
                self._cur_tick = target
            return []
        if target > self._cur_tick:
            self._advance(target)
        pending = self._due
        if not pending:
            return []
        due: list[TimerEntry] = []
        keep: list[TimerEntry] = []
        for entry in pending:
            if entry.deadline_ns <= now_ns:
                if len(entry.waitq):
                    due.append(entry)
                self._count -= 1
            else:
                keep.append(entry)
        self._due = keep
        if len(due) > 1:
            due.sort(key=lambda entry: (entry.deadline_ns, entry.seq))
        return due

    # --- introspection ------------------------------------------------------

    def _prune_and_scan(self) -> float | None:
        """Drop dead entries everywhere; return the earliest live deadline."""
        best: float | None = None
        keep: list[TimerEntry] = []
        for entry in self._due:
            if not len(entry.waitq):
                self._count -= 1
                continue
            keep.append(entry)
            if best is None or entry.deadline_ns < best:
                best = entry.deadline_ns
        self._due = keep
        for level in range(LEVELS):
            slots = self._slots[level]
            for index, bucket in enumerate(slots):
                if not bucket:
                    continue
                live = [entry for entry in bucket if len(entry.waitq)]
                if len(live) != len(bucket):
                    self._count -= len(bucket) - len(live)
                    slots[index] = live
                for entry in live:
                    if best is None or entry.deadline_ns < best:
                        best = entry.deadline_ns
        return best

    def next_live_deadline(self) -> float | None:
        """Earliest deadline somebody is actually waiting on, or None."""
        return self._prune_and_scan()

    def live_count(self) -> int:
        """Number of armed timers with at least one waiter."""
        self._prune_and_scan()
        return self._count
