"""The quadratic free-node profile, kept as the oracle for the scheduler's.

This is the conservative-backfill profile exactly as the scheduler
carried it before breakpoint search moved to bisection: every
candidate start rescans the whole breakpoint list, so a call costs
O(B^2) in the number of breakpoints.  ``test_free_profile.py`` drives
it and :class:`repro.cluster.scheduler._FreeProfile` through the same
generated call sequences on breakpoints more than 1e-12 apart and
demands identical results, exceptions and breakpoint state.  On times
closer than that it keeps separate steps and can strand a job (see
``test_float_sum_ends_share_a_step``).  Do not optimise or fix it.
"""

from repro.errors import ExperimentError


class _FreeProfile:
    """Free-node count over future time, for reservation carving.

    A step function represented as breakpoints ``(time, avail)``; the
    last value extends to infinity.  ``earliest_fit`` finds the first
    time a demand fits for a duration; ``reserve`` carves it out.
    O(n^2) over breakpoints — traces are tens of jobs, not millions.
    """

    def __init__(self, now: float, avail: int, releases: list[tuple[float, int]]):
        points: dict[float, int] = {now: 0}
        for t, n in releases:
            points[max(t, now)] = points.get(max(t, now), 0) + n
        self._times = sorted(points)
        level = avail
        self._avail = []
        for t in self._times:
            level += points[t]
            self._avail.append(level)

    def _avail_at(self, t: float) -> int:
        avail = 0
        for bt, av in zip(self._times, self._avail):
            if bt <= t + 1e-12:
                avail = av
            else:
                break
        return avail

    def earliest_fit(self, need: int, duration: float) -> float:
        # candidate starts are profile breakpoints only: on a carved
        # (non-monotonic) profile that can be slightly pessimistic, but
        # never lets a backfill delay an earlier reservation.
        for start in self._times:
            window_end = start + duration
            ok = all(
                av >= need
                for bt, av in zip(self._times, self._avail)
                if start - 1e-12 <= bt < window_end - 1e-12
            ) and self._avail_at(start) >= need
            if ok:
                return start
        raise ExperimentError("reservation does not fit on any horizon")

    def reserve(self, start: float, duration: float, need: int) -> None:
        end = start + duration
        for t in (start, end):
            if t not in self._times:
                idx = len([bt for bt in self._times if bt < t])
                self._times.insert(idx, t)
                self._avail.insert(idx, self._avail[idx - 1] if idx > 0 else 0)
        for i, bt in enumerate(self._times):
            if start - 1e-12 <= bt < end - 1e-12:
                self._avail[i] -= need
