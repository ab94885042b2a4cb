# Reference oracle for tests/ear/test_dynais.py: the detector as it was
# before the locked path became O(1), kept verbatim.  It updates every
# period tracker on every event, so it is slow but obviously exact.
"""DynAIS: Dynamic Application Iterative Structure detection.

EARL finds the outer loop of an MPI application *without any user
hints* by watching the stream of MPI calls: when the recent event
history becomes periodic, the period is the loop body and each period
boundary is one application iteration.  This reimplementation follows
the published behaviour (loop begin / new iteration / loop end events,
smallest-period-wins) with an O(max_period) per-event incremental
algorithm:

for every candidate period ``p`` we track the length of the current
suffix of the stream that satisfies ``e[t] == e[t - p]``; once that
suffix covers ``confirm`` full periods, the stream is declared periodic
with period ``p``.  Ties resolve to the smallest period, so an outer
loop containing two identical inner halves is reported at the inner
period — the same resolution the real DynAIS exhibits, and equally
adequate for signature windows because EARL only needs *stable,
repeating* boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

__all__ = ["DynaisEvent", "Dynais"]


class DynaisEvent(Enum):
    """What the detector says after consuming one event."""

    NO_LOOP = auto()
    #: periodicity just confirmed; the current event starts iteration 0.
    NEW_LOOP = auto()
    #: inside a detected loop, not at a period boundary.
    IN_LOOP = auto()
    #: inside a detected loop, at a period boundary (one iteration done).
    NEW_ITERATION = auto()
    #: the periodic pattern broke; the loop ended.
    END_LOOP = auto()


@dataclass
class _PeriodTracker:
    period: int
    run: int = 0  # length of the suffix satisfying e[t] == e[t-p]


class Dynais:
    """Streaming loop detector over integer event ids."""

    def __init__(self, *, max_period: int = 64, confirm: int = 3) -> None:
        if max_period <= 0:
            raise ValueError("max_period must be positive")
        if confirm < 2:
            raise ValueError("confirm must be at least 2")
        self.max_period = max_period
        self.confirm = confirm
        self._history: list[int] = []
        self._trackers = [_PeriodTracker(p) for p in range(1, max_period + 1)]
        self._period: int | None = None
        self._since_boundary = 0

    @property
    def in_loop(self) -> bool:
        """True once a loop period has been confirmed."""
        return self._period is not None

    @property
    def period(self) -> int | None:
        """Length of the detected loop body, in events."""
        return self._period

    def reset(self) -> None:
        """Forget all history (EARL calls this between application phases)."""
        self._history.clear()
        for t in self._trackers:
            t.run = 0
        self._period = None
        self._since_boundary = 0

    def observe(self, event: int) -> DynaisEvent:
        """Consume one MPI event; report the loop state transition."""
        n = len(self._history)
        for t in self._trackers:
            if n >= t.period and self._history[n - t.period] == event:
                t.run += 1
            else:
                t.run = 0
        self._history.append(event)
        if len(self._history) > 4 * self.max_period * self.confirm:
            # bound memory: keep enough history for the longest period
            keep = 2 * self.max_period * self.confirm
            del self._history[:-keep]

        if self._period is None:
            for t in self._trackers:  # ordered by period: smallest wins
                if t.run >= self.confirm * t.period:
                    self._period = t.period
                    self._since_boundary = 1
                    return DynaisEvent.NEW_LOOP
            return DynaisEvent.NO_LOOP

        tracker = self._trackers[self._period - 1]
        if tracker.run == 0:
            self._period = None
            self._since_boundary = 0
            return DynaisEvent.END_LOOP
        self._since_boundary += 1
        if self._since_boundary >= self._period:
            self._since_boundary = 0
            return DynaisEvent.NEW_ITERATION
        return DynaisEvent.IN_LOOP
