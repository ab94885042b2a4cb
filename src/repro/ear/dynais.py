"""DynAIS: Dynamic Application Iterative Structure detection.

EARL finds the outer loop of an MPI application *without any user
hints* by watching the stream of MPI calls: when the recent event
history becomes periodic, the period is the loop body and each period
boundary is one application iteration.  This reimplementation follows
the published behaviour (loop begin / new iteration / loop end events,
smallest-period-wins) incrementally:

for every candidate period ``p`` we track the length of the current
suffix of the stream that satisfies ``e[t] == e[t - p]``; once that
suffix covers ``confirm`` full periods, the stream is declared periodic
with period ``p``.  Ties resolve to the smallest period, so an outer
loop containing two identical inner halves is reported at the inner
period — the same resolution the real DynAIS exhibits, and equally
adequate for signature windows because EARL only needs *stable,
repeating* boundaries.

Costs: O(max_period) per event while searching; O(1) per event while
locked, where only ``e[t] == e[t - period]`` is checked and the other
suffix lengths are left stale.  On ``END_LOOP`` they are recounted from
the retained history, each walk capped at ``confirm * p`` — all the
search ever compares a suffix against — so the recount is exact.
"""

from __future__ import annotations

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


# member lookups on an Enum class are slow; the locked path returns these
_IN_LOOP = DynaisEvent.IN_LOOP
_NEW_ITERATION = DynaisEvent.NEW_ITERATION
_END_LOOP = DynaisEvent.END_LOOP


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
        self._trim_above = 4 * max_period * confirm
        #: ``_runs[p - 1]``: length of the suffix satisfying e[t] == e[t-p]
        #: (stale while locked, recounted on END_LOOP).
        self._runs = [0] * max_period
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
        """Forget all history and any locked loop, as if newly built."""
        self._history.clear()
        self._runs = [0] * self.max_period
        self._period = None
        self._since_boundary = 0

    def observe(self, event: int) -> DynaisEvent:
        """Consume one MPI event; report the loop state transition."""
        history = self._history
        history.append(event)
        if len(history) > self._trim_above:
            # bound memory: keep enough history for the longest period
            del history[: -2 * self.max_period * self.confirm]

        period = self._period
        if period is not None:
            # a lock implies (confirm + 1) * period retained events
            if history[-1 - period] != event:
                self._period = None
                self._since_boundary = 0
                self._recount()
                return _END_LOOP
            since = self._since_boundary + 1
            if since >= period:
                self._since_boundary = 0
                return _NEW_ITERATION
            self._since_boundary = since
            return _IN_LOOP

        runs = self._runs
        lock = None
        # runs[i] compares with history[-2 - i], the event i + 1 back;
        # periods longer than the history keep run 0
        for i, prev in enumerate(history[-2 : -self.max_period - 2 : -1]):
            if prev == event:
                runs[i] += 1
                if lock is None and runs[i] >= self.confirm * (i + 1):
                    lock = i + 1  # ordered by period: smallest wins
            else:
                runs[i] = 0
        if lock is None:
            return DynaisEvent.NO_LOOP
        self._period = lock
        self._since_boundary = 1
        return DynaisEvent.NEW_LOOP

    def _recount(self) -> None:
        """Rebuild every period's run by walking back from the newest event.

        A walk stops at a mismatch, at ``confirm * p`` or at index 0 (the
        search's ``n >= p`` guard); after a trim the history holds
        ``2 * max_period * confirm >= (confirm + 1) * p`` events, so there
        only a mismatch or the cap can stop it.
        """
        history = self._history
        newest = len(history) - 1
        for p in range(1, self.max_period + 1):
            t = newest
            stop = max(newest - self.confirm * p, p - 1)
            while t > stop and history[t] == history[t - p]:
                t -= 1
            self._runs[p - 1] = newest - t
