"""The conservative-backfill free-node profile, against its quadratic oracle.

:class:`repro.cluster.scheduler._FreeProfile` locates reservation
windows by bisection.  On breakpoints more than the 1e-12 time
tolerance apart it must behave exactly like the original
rescan-everything profile kept in :mod:`free_profile_oracle`: the same
fit for every call, the same exception, and the same breakpoints and
levels after every call.

On times closer than the tolerance the two differ on purpose.  The
oracle kept ``0.3`` and ``0.1 + 0.2`` as two steps, and a job as wide
as the pool then fit at neither: the window of each start held the
other, lower step, so a backfill pass raised and the campaign died.
The profile now treats such times as one breakpoint; the contract
tests below pin that, and the backfill invariants themselves: carving
reservations in queue order never promises a node twice, and a backfill
pass never delays the queue head's reservation.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.scheduler import ClusterConfig, ClusterSimulation, _FreeProfile
from repro.cluster.traces import TraceConfig, generate_trace
from repro.errors import ExperimentError
from repro.experiments.parallel import ExperimentPool, RunCache

from .free_profile_oracle import _FreeProfile as OracleProfile

#: an eighth-second grid: every sum stays exact, so breakpoints are
#: either equal or at least 0.125 apart.
grid = st.integers(0, 400).map(lambda k: k * 0.125)

#: offsets that put two times inside, at and just past the 1e-12
#: tolerance of each other.
JITTER = (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, 2e-12, -2e-12)
BASES = (0.0, 0.3, 0.1 + 0.2, 1.0, 2.0, 3.5, 10.0, 12.25, 40.0)


@st.composite
def near_times(draw):
    return draw(st.sampled_from(BASES)) + draw(st.sampled_from(JITTER))


near_durations = st.one_of(
    st.sampled_from((0.0, 1e-13, 1e-12, 2e-12, 0.1, 0.2, 0.3)),
    st.floats(min_value=0.0, max_value=50.0),
    near_times(),
)


def _fit(profile, need, duration):
    try:
        return profile.earliest_fit(need, duration)
    except ExperimentError as exc:
        return exc


def _same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return type(a) is type(b) and repr(a) == repr(b)


def _state(profile):
    return [repr(t) for t in profile._times], list(profile._avail)


#: one step: fit a demand and reserve it where it fits, or carve a
#: reservation at an arbitrary start (exercising every insert path).
grid_steps = st.one_of(
    st.tuples(st.just("fit"), st.integers(0, 8), grid),
    st.tuples(st.just("carve"), st.integers(0, 8), grid, grid),
)


@settings(max_examples=400, deadline=None)
@given(
    now=grid,
    avail=st.integers(0, 6),
    releases=st.lists(st.tuples(grid, st.integers(0, 4)), max_size=12),
    calls=st.lists(grid_steps, min_size=1, max_size=25),
)
def test_matches_oracle_on_separated_times(now, avail, releases, calls):
    # releases before ``now`` fold into it; repeated times share a step.
    fast = _FreeProfile(now, avail, list(releases))
    oracle = OracleProfile(now, avail, list(releases))
    assert _state(fast) == _state(oracle)
    for call in calls:
        if call[0] == "fit":
            _, need, duration = call
            got, want = _fit(fast, need, duration), _fit(oracle, need, duration)
            assert _same(got, want), (call, got, want)
            if isinstance(want, Exception):
                continue
            fast.reserve(got, duration, need)
            oracle.reserve(want, duration, need)
        else:
            _, need, duration, start = call
            fast.reserve(start, duration, need)
            oracle.reserve(start, duration, need)
        assert _state(fast) == _state(oracle), call


# -- near-duplicate times and the backfill invariant --------------------------


def test_float_sum_ends_share_a_step():
    # four free nodes; two 1-node reservations end at 0.1 + 0.2 and at
    # 0.3.  The oracle keeps two steps and strands a 4-node job.
    oracle = OracleProfile(0.0, 4, [])
    fast = _FreeProfile(0.0, 4, [])
    for profile in (oracle, fast):
        profile.reserve(0.0, 0.1 + 0.2, 1)
        profile.reserve(0.0, 0.3, 1)
    with pytest.raises(ExperimentError, match="does not fit"):
        oracle.earliest_fit(4, 1.0)
    assert fast._avail == [2, 4]
    assert fast.earliest_fit(4, 1.0) == 0.1 + 0.2


@settings(max_examples=400, deadline=None)
@given(
    now=st.sampled_from(BASES),
    free=st.integers(0, 4),
    releases=st.lists(st.tuples(near_times(), st.integers(0, 2)), max_size=10),
    queue=st.lists(st.tuples(st.integers(1, 10), near_durations), max_size=30),
)
def test_queue_order_carving_never_overcommits(now, free, releases, queue):
    profile = _FreeProfile(now, free, list(releases))
    capacity = free + sum(n for _, n in releases)
    for need, duration in queue:
        if need > capacity:
            with pytest.raises(ExperimentError):
                profile.earliest_fit(need, duration)
            continue
        at = profile.earliest_fit(need, duration)
        profile.reserve(at, duration, need)
        times = profile._times
        assert all(a < b - 1e-12 for a, b in zip(times, times[1:])), times
        assert min(profile._avail) >= 0
        assert profile._avail[-1] == capacity


@pytest.fixture(scope="module")
def pool():
    """One run cache across examples: traces repeat (workload, seed) jobs."""
    return ExperimentPool(jobs=1, cache=RunCache())


def _head_fit(sim, profiles, job):
    """The job's earliest fit over every generation wide enough for it."""
    need = job.workload.n_nodes
    return min(
        profiles[gen].earliest_fit(need, job.est_time_s)
        for gen in sim.node_pool.generations
        if need <= len(sim.node_pool.node_ids(gen))
    )


class _CheckedBackfill:
    """Patch the scheduler to check every backfill pass.

    Every carve must leave the profile at or above 0 free nodes.  Every
    pass must leave the queue head's earliest fit no later than before
    it: the profiles are rebuilt after the pass with its backfilled
    starters releasing their nodes at ``now + est_time_s``.  That holds
    under the walltime *estimates* only — the simulator does not kill a
    job that overruns its estimate (see ``TraceJob.est_time_s``), so a
    real overrun can still delay the head.  The carves are counted so a
    test can see that backfill happened.
    """

    def __init__(self, mp: pytest.MonkeyPatch):
        self.carves = 0
        reserve_, backfill_pass_ = _FreeProfile.reserve, ClusterSimulation._backfill_pass

        def reserve(profile, start, duration, need):
            reserve_(profile, start, duration, need)
            self.carves += 1
            low = min(profile._avail)
            assert low >= 0, f"carving {need} node(s) at {start} left {low} free"

        def backfill_pass(sim, now, already_started):
            head = sim._queue[0]
            before = _head_fit(sim, sim._free_profiles(now, already_started), head)
            started = backfill_pass_(sim, now, already_started)
            profiles = sim._free_profiles(now, already_started + started)
            after = _head_fit(sim, profiles, head)
            assert after <= before + 1e-12, (
                f"backfill at {now} moved job {head.index}'s reservation "
                f"from {before} to {after}"
            )
            return started

        mp.setattr(_FreeProfile, "reserve", reserve)
        mp.setattr(ClusterSimulation, "_backfill_pass", backfill_pass)


@pytest.mark.parametrize(
    "n_nodes, node_mix",
    [(4, None), (8, (("skylake", 4), ("graniterapids", 4)))],
    ids=["homogeneous", "node-mix"],
)
@settings(max_examples=15, deadline=None)
# at least 10 jobs arrive at t=0, more than either pool holds, so every
# example queues jobs and carves reservations.
@given(
    seed=st.integers(0, 2**16),
    n_jobs=st.integers(12, 20),
    burst=st.sampled_from([0.8, 0.9, 1.0]),
)
# two reservation ends 7e-15 apart stranded the queue at t=18.4 s on the
# 4-node cluster: the pass raised "does not fit on any horizon".
@example(seed=10830, n_jobs=14, burst=0.8)
def test_burst_backfill_never_overcommits(pool, n_nodes, node_mix, seed, n_jobs, burst):
    trace = generate_trace(
        TraceConfig(n_jobs=n_jobs, seed=seed, scale=0.05, burst_fraction=burst)
    )
    config = ClusterConfig(n_nodes=n_nodes, node_mix=node_mix)
    with pytest.MonkeyPatch.context() as mp:
        checked = _CheckedBackfill(mp)
        report = ClusterSimulation(trace, config, pool=pool).run()
    assert report.n_jobs == n_jobs
    assert checked.carves > 0, "the burst never queued a job"
