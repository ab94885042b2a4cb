"""Incremental submission to ClusterSimulation vs. the batch path."""

import dataclasses

import pytest

from repro.cluster.scheduler import ClusterConfig, ClusterSimulation
from repro.cluster.traces import TraceConfig, generate_trace
from repro.ear.eargm import EargmConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments.parallel import ExperimentPool, RunCache


def fresh_pool():
    return ExperimentPool(jobs=1, cache=RunCache())


def small_trace(n_jobs=6, seed=0):
    return generate_trace(
        TraceConfig(n_jobs=n_jobs, seed=seed, scale=0.2, mean_interarrival_s=10.0)
    )


def config(**kw):
    kw.setdefault("n_nodes", 8)
    kw.setdefault("telemetry", True)
    return ClusterConfig(**kw)


class TestStreamingEquivalence:
    def test_streamed_trace_bit_identical_to_batch(self):
        trace = small_trace()
        batch = ClusterSimulation(trace, config(), pool=fresh_pool()).run()
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        for job in trace:  # submitted before the clock passes any submit_s
            sim.submit_job(job)
        sim.drain_events()
        stream = sim.finalize()
        assert stream.jobs == batch.jobs
        assert stream.total_energy_j == batch.total_energy_j
        assert stream.makespan_s == batch.makespan_s
        assert stream.utilisation == batch.utilisation
        assert stream.mean_wait_s == batch.mean_wait_s
        assert stream.eardbd.forwarded == batch.eardbd.forwarded

    def test_incremental_batches_match_when_submitted_ahead_of_clock(self):
        # Submitting in several pump cycles is still identical as long
        # as every job is admitted before the clock reaches it; here we
        # interleave stepping with submission but keep arrivals ahead.
        trace = small_trace()
        batch = ClusterSimulation(trace, config(), pool=fresh_pool()).run()
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        for job in trace:
            sim.submit_job(job)
            # advance only up to (not past) the next submission time
            while sim.n_pending_events and sim.clock.now < job.submit_s:
                sim.step()
        sim.drain_events()
        stream = sim.finalize()
        assert stream.jobs == batch.jobs

    def test_harvesting_preserves_report_totals(self):
        trace = small_trace()
        batch = ClusterSimulation(trace, config(), pool=fresh_pool()).run()
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        harvested = []
        for job in trace:
            sim.submit_job(job)
            sim.drain_events()
            harvested.extend(sim.harvest_outcomes())
            assert len(sim._outcomes) == 0
        stream = sim.finalize()
        assert stream.jobs == ()  # drained
        assert len(harvested) == batch.n_jobs
        assert stream.total_energy_j == pytest.approx(batch.total_energy_j)
        assert stream.n_backfilled == batch.n_backfilled
        assert stream.max_wait_s >= 0.0


class TestStreamingSemantics:
    def test_empty_streaming_sim_stays_at_time_zero(self):
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        sim.start()
        assert sim.n_pending_events == 0
        assert sim.clock.now == 0.0

    def test_late_submission_admitted_at_now(self):
        trace = small_trace(n_jobs=2)
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        sim.submit_job(trace[0])
        sim.drain_events()
        now = sim.clock.now
        assert now > 0.0
        admitted = sim.submit_job(trace[1])
        assert admitted.submit_s == now
        sim.drain_events()
        outcome = [o for o in sim.harvest_outcomes() if o.index == trace[1].index][0]
        assert outcome.wait_s >= 0.0

    @pytest.mark.parametrize("submit_s", [float("inf"), float("nan")])
    def test_non_finite_arrival_rejected_at_admission(self, submit_s):
        # an arrival at t=inf would keep the flush tick re-arming forever
        job = dataclasses.replace(small_trace(n_jobs=1)[0], submit_s=submit_s)
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        with pytest.raises(ConfigError, match="finite"):
            sim.submit_job(job)
        assert sim.n_pending_events == 0

    @pytest.mark.parametrize("est_time_s", [float("inf"), float("nan")])
    def test_non_finite_walltime_rejected_at_construction(self, est_time_s):
        job = dataclasses.replace(small_trace(n_jobs=1)[0], est_time_s=est_time_s)
        with pytest.raises(ConfigError, match="finite"):
            ClusterSimulation((job,), config(), pool=fresh_pool())

    def test_flush_rearms_after_idle(self):
        trace = small_trace(n_jobs=2)
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        sim.submit_job(trace[0])
        sim.drain_events()  # queue runs dry: flush tick dies with it
        assert sim.n_pending_events == 0
        sim.submit_job(trace[1])
        assert sim.n_pending_events >= 2  # arrival + re-armed flush
        sim.drain_events()
        assert sim.jobs_completed == 2

    def test_eargm_spans_streaming_submissions(self):
        trace = small_trace(n_jobs=4)
        cfg = config(eargm=EargmConfig(budget_j=1e9, horizon_s=50.0))
        sim = ClusterSimulation((), cfg, pool=fresh_pool())
        for job in trace:
            sim.submit_job(job)
        sim.drain_events()
        report = sim.finalize()
        assert report.consumed_j == pytest.approx(report.total_energy_j)

    def test_sim_built_with_trace_accepts_later_submissions(self):
        # batch mode is streaming mode with the trace submitted up front
        trace = small_trace()
        batch = ClusterSimulation(trace, config(), pool=fresh_pool()).run()
        sim = ClusterSimulation(trace[:3], config(), pool=fresh_pool())
        for job in trace[3:]:
            sim.submit_job(job)
        mixed = sim.run()
        assert mixed.jobs == batch.jobs
        assert mixed.total_energy_j == batch.total_energy_j
        assert mixed.makespan_s == batch.makespan_s
        assert mixed.eardbd.forwarded == batch.eardbd.forwarded

    def test_finalize_runs_once(self):
        trace = small_trace(n_jobs=1)
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        sim.submit_job(trace[0])
        sim.drain_events()
        sim.finalize()
        with pytest.raises(ExperimentError):
            sim.finalize()
        with pytest.raises(ExperimentError):
            sim.submit_job(trace[0])

    def test_drain_telemetry_events_bounds_backlog(self):
        trace = small_trace(n_jobs=3)
        sim = ClusterSimulation((), config(), pool=fresh_pool())
        for job in trace:
            sim.submit_job(job)
        sim.drain_events()
        events = sim.drain_telemetry_events()
        assert events  # job_submit/start/end at least
        assert sim.drain_telemetry_events() == ()
