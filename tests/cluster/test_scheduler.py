"""ClusterSimulation: scheduling, determinism, EARGM actuation."""

import pytest

from repro.cluster.eardbd import EardbdConfig
from repro.cluster.scheduler import ClusterConfig, ClusterSimulation
from repro.cluster.traces import TraceConfig, TraceJob, generate_trace
from repro.ear.accounting import AccountingDB
from repro.ear.config import EarConfig
from repro.ear.eargm import EargmConfig, WarningLevel
from repro.errors import ConfigError, ExperimentError
from repro.experiments.parallel import ExperimentPool, RunCache
from repro.experiments.resilience import reference_fault_plan
from repro.hw.node import SD530
from repro.workloads.generator import synthetic_workload


def wl(name, *, n_nodes=1, n_iterations=40, core=0.8, unc=0.08, mem=0.1):
    return synthetic_workload(
        name=name,
        node_config=SD530,
        core_share=core,
        unc_share=unc,
        mem_share=mem,
        n_nodes=n_nodes,
        n_iterations=n_iterations,
    )


def tj(index, submit_s, workload, *, seed=1, margin=1.3):
    return TraceJob(
        index=index,
        submit_s=submit_s,
        workload=workload,
        seed=seed,
        est_time_s=workload.total_ref_time_s * margin,
    )


def fresh_pool():
    return ExperimentPool(jobs=1, cache=RunCache())


def run(trace, config, **kwargs):
    kwargs.setdefault("pool", fresh_pool())
    return ClusterSimulation(trace, config, **kwargs).run()


def small_trace(n_jobs=5, seed=0):
    return generate_trace(
        TraceConfig(n_jobs=n_jobs, seed=seed, scale=0.2, mean_interarrival_s=10.0)
    )


def narrow_trace(n_jobs=6):
    """Single-node jobs only, for clusters narrower than the default mix."""
    return tuple(
        tj(i, 5.0 * i, wl(f"n{i}", n_iterations=40), seed=i + 1)
        for i in range(n_jobs)
    )


class TestFcfs:
    def test_serial_on_one_node(self):
        trace = tuple(
            tj(i, float(i), wl(f"job{i}", n_iterations=20), seed=i + 1)
            for i in range(3)
        )
        report = run(trace, ClusterConfig(n_nodes=1))
        assert report.n_jobs == 3
        assert [j.index for j in report.jobs] == [0, 1, 2]
        starts = [j.start_s for j in report.jobs]
        ends = [j.end_s for j in report.jobs]
        # one node: strictly back to back, never overlapping
        for nxt, prev_end in zip(starts[1:], ends[:-1]):
            assert nxt >= prev_end - 1e-9
        assert report.n_backfilled == 0

    def test_wide_job_waits_for_nodes(self):
        narrow = wl("narrow", n_nodes=1, n_iterations=40)
        wide = wl("wide", n_nodes=2, n_iterations=20)
        trace = (tj(0, 0.0, narrow), tj(1, 0.0, narrow, seed=2), tj(2, 1.0, wide))
        report = run(trace, ClusterConfig(n_nodes=2, backfill=False))
        wide_start = next(j for j in report.jobs if j.workload == "wide").start_s
        narrow_ends = [j.end_s for j in report.jobs if j.workload == "narrow"]
        assert wide_start >= max(narrow_ends) - 1e-9

    def test_placement_disjoint_while_overlapping(self):
        trace = tuple(
            tj(i, 0.0, wl(f"p{i}", n_iterations=40), seed=i + 1) for i in range(4)
        )
        report = run(trace, ClusterConfig(n_nodes=4))
        used = [n for j in report.jobs for n in j.placement]
        assert sorted(used) == [0, 1, 2, 3]


class TestBackfill:
    def backfill_trace(self, with_short=True):
        # 4-node cluster: A (3 nodes, long) runs; B (4 nodes) queues at
        # its head; C (1 node, short) can slip into A's shadow; D
        # (1 node, long) would push B back and must stay queued.
        a = tj(0, 0.0, wl("A", n_nodes=3, n_iterations=90))
        b = tj(1, 1.0, wl("B", n_nodes=4, n_iterations=30))
        c = tj(2, 2.0, wl("C", n_nodes=1, n_iterations=12))
        d = tj(3, 3.0, wl("D", n_nodes=1, n_iterations=120))
        return (a, b, c, d) if with_short else (a, b, d)

    def test_short_job_backfills_long_does_not(self):
        report = run(self.backfill_trace(), ClusterConfig(n_nodes=4))
        by_name = {j.workload: j for j in report.jobs}
        assert by_name["C"].backfilled
        assert by_name["C"].start_s == pytest.approx(2.0)
        assert not by_name["D"].backfilled
        assert by_name["D"].start_s > by_name["B"].start_s - 1e-9
        assert report.n_backfilled == 1

    def test_backfill_never_delays_the_queue_head(self):
        with_c = run(self.backfill_trace(), ClusterConfig(n_nodes=4))
        without_c = run(self.backfill_trace(with_short=False), ClusterConfig(n_nodes=4))
        b_with = next(j for j in with_c.jobs if j.workload == "B")
        b_without = next(j for j in without_c.jobs if j.workload == "B")
        assert b_with.start_s <= b_without.start_s + 1e-9

    def test_no_backfill_flag_is_pure_fcfs(self):
        report = run(self.backfill_trace(), ClusterConfig(n_nodes=4, backfill=False))
        by_name = {j.workload: j for j in report.jobs}
        assert report.n_backfilled == 0
        # C arrives behind B and now has to wait for it
        assert by_name["C"].start_s >= by_name["B"].start_s - 1e-9


class TestDeterminism:
    def test_same_trace_same_report(self):
        trace = small_trace()
        config = ClusterConfig(n_nodes=4, ear_config=EarConfig(), telemetry=True)
        db_a, db_b = AccountingDB(), AccountingDB()
        a = run(trace, config, accounting=db_a)
        b = run(trace, config, accounting=db_b)
        assert a.to_dict() == b.to_dict()
        assert db_a.to_json() == db_b.to_json()
        assert a.telemetry == b.telemetry

    def test_serial_equals_parallel(self):
        trace = small_trace(n_jobs=6)
        config = ClusterConfig(n_nodes=4, ear_config=EarConfig(), telemetry=True)
        serial = ClusterSimulation(
            trace, config, pool=ExperimentPool(jobs=1, cache=RunCache())
        ).run()
        parallel = ClusterSimulation(
            trace, config, pool=ExperimentPool(jobs=2, cache=RunCache())
        ).run()
        assert serial.to_dict() == parallel.to_dict()
        assert serial.telemetry == parallel.telemetry


class TestEargmActuation:
    def test_tight_budget_caps_later_jobs(self):
        trace = narrow_trace(n_jobs=6)
        report = run(
            trace,
            ClusterConfig(
                n_nodes=2,
                ear_config=EarConfig(),
                eargm=EargmConfig(budget_j=2e4, horizon_s=600.0),
            ),
        )
        offsets = [j.pstate_offset for j in report.jobs]
        assert offsets[0] == 0
        assert max(offsets) > 0
        assert report.cap_changes >= 1
        assert report.consumed_j == pytest.approx(report.total_energy_j)
        assert report.final_level is not WarningLevel.OK

    def test_generous_budget_never_caps(self):
        trace = small_trace(n_jobs=4)
        report = run(
            trace,
            ClusterConfig(
                n_nodes=4,
                ear_config=EarConfig(),
                eargm=EargmConfig(budget_j=1e12, horizon_s=1e6),
            ),
        )
        assert all(j.pstate_offset == 0 for j in report.jobs)
        assert report.cap_changes == 0
        assert report.final_level is WarningLevel.OK

    def test_no_eargm_reports_no_budget(self):
        report = run(small_trace(n_jobs=3), ClusterConfig(n_nodes=4))
        assert report.budget_j is None
        assert report.consumed_j is None
        assert report.final_level is None
        assert all(j.level_at_start is WarningLevel.OK for j in report.jobs)

    def test_cap_reaches_the_hardware(self):
        trace = narrow_trace(n_jobs=6)
        free = run(trace, ClusterConfig(n_nodes=2, ear_config=EarConfig()))
        capped = run(
            trace,
            ClusterConfig(
                n_nodes=2,
                ear_config=EarConfig(),
                eargm=EargmConfig(budget_j=2e4, horizon_s=600.0),
            ),
        )
        free_by_idx = {j.index: j for j in free.jobs}
        slower = [
            j
            for j in capped.jobs
            if j.pstate_offset > 0
            and j.avg_cpu_freq_ghz < free_by_idx[j.index].avg_cpu_freq_ghz - 0.1
        ]
        assert slower, "capped jobs should run at visibly lower CPU frequency"


class TestAccountingIntegration:
    def test_eardbd_reconciles_with_db(self):
        db = AccountingDB()
        trace = small_trace(n_jobs=5)
        report = run(
            trace,
            ClusterConfig(
                n_nodes=4,
                ear_config=EarConfig(),
                eardbd=EardbdConfig(flush_interval_s=15.0),
            ),
            accounting=db,
        )
        assert report.eardbd.reconciles_with(db)
        node_count = sum(j.n_nodes for j in report.jobs)
        assert db.node_rows() == node_count
        assert report.eardbd.forwarded == node_count
        assert report.eardbd.dropped == 0

    def test_db_energy_matches_report(self):
        db = AccountingDB()
        report = run(
            small_trace(n_jobs=4),
            ClusterConfig(n_nodes=4, ear_config=EarConfig()),
            accounting=db,
        )
        assert db.total_energy_j() == pytest.approx(report.total_energy_j)

    def test_policy_recorded_per_job(self):
        db = AccountingDB()
        run(
            small_trace(n_jobs=3),
            ClusterConfig(n_nodes=4, ear_config=EarConfig(policy="min_time")),
            accounting=db,
        )
        assert {rec.policy for rec in db.jobs()} == {"min_time"}

    def test_monitoring_only_records_none_policy(self):
        db = AccountingDB()
        run(small_trace(n_jobs=3), ClusterConfig(n_nodes=4), accounting=db)
        assert {rec.policy for rec in db.jobs()} == {"none"}


class TestTelemetry:
    def test_lifecycle_events_recorded(self):
        trace = small_trace(n_jobs=4)
        report = run(
            trace, ClusterConfig(n_nodes=4, ear_config=EarConfig(), telemetry=True)
        )
        kinds = [
            (e.subsystem, e.kind) for e in report.telemetry.events
        ]
        assert kinds.count(("cluster", "job_submit")) == 4
        assert kinds.count(("cluster", "job_start")) == 4
        assert kinds.count(("cluster", "job_end")) == 4
        assert ("eardbd", "flush") in kinds

    def test_telemetry_off_by_default(self):
        report = run(small_trace(n_jobs=2), ClusterConfig(n_nodes=4))
        assert report.telemetry is None

    def test_event_times_ride_the_sim_clock(self):
        report = run(
            narrow_trace(n_jobs=4),
            ClusterConfig(n_nodes=2, ear_config=EarConfig(), telemetry=True),
        )
        times = [e.time_s for e in report.telemetry.events]
        assert times == sorted(times)
        assert times[-1] > 0.0


class TestFaults:
    def test_fault_plan_reaches_the_jobs(self):
        trace = small_trace(n_jobs=3)
        clean = run(trace, ClusterConfig(n_nodes=4, ear_config=EarConfig()))
        faulty = run(
            trace,
            ClusterConfig(
                n_nodes=4,
                ear_config=EarConfig(),
                fault_plan=reference_fault_plan().scaled(5.0),
            ),
        )
        assert clean.n_jobs == faulty.n_jobs == 3
        # an intense fault regime must leave a visible mark somewhere
        assert clean.to_dict() != faulty.to_dict()


class TestValidation:
    def test_empty_trace_rejected(self):
        sim = ClusterSimulation((), ClusterConfig(), pool=fresh_pool())
        with pytest.raises(ConfigError):
            sim.run()

    def test_too_wide_job_rejected(self):
        trace = (tj(0, 0.0, wl("wide", n_nodes=4, n_iterations=10)),)
        with pytest.raises(ConfigError, match="needs 4 nodes"):
            ClusterSimulation(trace, ClusterConfig(n_nodes=2), pool=fresh_pool())

    def test_zero_node_cluster_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_nodes=0)

    def test_simulation_runs_once(self):
        sim = ClusterSimulation(
            small_trace(n_jobs=2), ClusterConfig(n_nodes=4), pool=fresh_pool()
        )
        sim.run()
        with pytest.raises(ExperimentError, match="runs once"):
            sim.run()

    def test_utilisation_bounded(self):
        report = run(small_trace(n_jobs=5), ClusterConfig(n_nodes=4))
        assert 0.0 < report.utilisation <= 1.0
        assert report.makespan_s > 0.0
