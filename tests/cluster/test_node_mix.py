"""Node pools: mix parsing, layout, per-generation scheduling.

The scheduler always runs on a :class:`NodePool`.  A ``--node-mix``
cluster places each job entirely inside one processor generation and
retargets the workload to that generation's silicon.  A homogeneous
cluster is one generation without a node config: a single-generation
mix reproduces its schedule, and every job keeps its own node type.
These tests pin those properties plus the pool's node-id bookkeeping
and the per-die ``uncore/limit_write`` telemetry a mixed run surfaces
from non-MSR backends.
"""

import pytest

from repro.cluster.pool import GENERATIONS, NodePool, parse_node_mix
from repro.cluster.scheduler import ClusterConfig, ClusterSimulation
from repro.cluster.traces import TraceJob
from repro.errors import ConfigError
from repro.experiments.parallel import ExperimentPool, RunCache
from repro.hw.node import GRANITE_RAPIDS_NODE, SD530
from repro.sim.engine import run_workload
from repro.workloads.generator import synthetic_workload
from repro.workloads.kernels import bt_cuda_d, lu_cuda_d


def wl(name, *, n_nodes=1, n_iterations=30):
    return synthetic_workload(
        name=name,
        node_config=SD530,
        core_share=0.8,
        unc_share=0.08,
        mem_share=0.1,
        n_nodes=n_nodes,
        n_iterations=n_iterations,
    )


def tj(index, submit_s, workload, *, seed=1):
    return TraceJob(
        index=index,
        submit_s=submit_s,
        workload=workload,
        seed=seed,
        est_time_s=workload.total_ref_time_s * 1.3,
    )


def run(trace, config):
    pool = ExperimentPool(jobs=1, cache=RunCache())
    return ClusterSimulation(trace, config, pool=pool).run()


MIX = (("skylake", 2), ("graniterapids", 2))


# -- parsing ----------------------------------------------------------------


class TestParseNodeMix:
    def test_order_preserved(self):
        assert parse_node_mix("skylake=8,graniterapids=8") == (
            ("skylake", 8),
            ("graniterapids", 8),
        )
        assert parse_node_mix("graniterapids=1, skylake=3") == (
            ("graniterapids", 1),
            ("skylake", 3),
        )

    def test_malformed_entry(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_node_mix("skylake")

    def test_unknown_generation(self):
        with pytest.raises(ConfigError, match="unknown node generation"):
            parse_node_mix("itanium=4")

    def test_duplicate_generation(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_node_mix("skylake=2,skylake=2")

    def test_non_integer_count(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_node_mix("skylake=lots")

    def test_count_below_one(self):
        with pytest.raises(ConfigError, match=">= 1"):
            parse_node_mix("skylake=0")

    def test_empty_spec(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_node_mix(" , ")


# -- pool layout ------------------------------------------------------------


class TestNodePool:
    def test_contiguous_ranges_in_mix_order(self):
        pool = NodePool(MIX)
        assert pool.total == 4
        assert pool.node_ids("skylake") == range(0, 2)
        assert pool.node_ids("graniterapids") == range(2, 4)
        assert pool.generations == ("skylake", "graniterapids")
        assert pool.max_generation_size == 2

    def test_generation_of_and_config_of(self):
        pool = NodePool(MIX)
        assert pool.generation_of(0) == "skylake"
        assert pool.generation_of(3) == "graniterapids"
        assert pool.config_of(1) == SD530
        assert pool.config_of(2) == GRANITE_RAPIDS_NODE
        with pytest.raises(ConfigError):
            pool.generation_of(4)

    def test_broadwell_is_sysfs_backed(self):
        assert GENERATIONS["broadwell"].uncore_backend == "sysfs"
        assert GENERATIONS["skylake"].uncore_backend == "msr"
        assert GENERATIONS["graniterapids"].uncore_backend == "tpmi"

    def test_mix_must_total_n_nodes(self):
        with pytest.raises(ConfigError, match="totals"):
            ClusterConfig(n_nodes=8, node_mix=MIX)


# -- mixed scheduling -------------------------------------------------------


class TestMixedScheduling:
    def test_mixed_run_completes_within_generations(self):
        trace = tuple(
            tj(i, 2.0 * i, wl(f"m{i}", n_nodes=1 + i % 2), seed=i + 1)
            for i in range(6)
        )
        report = run(trace, ClusterConfig(n_nodes=4, node_mix=MIX))
        assert report.n_jobs == len(trace)
        pool = NodePool(MIX)
        for job in report.jobs:
            gens = {pool.generation_of(n) for n in job.placement}
            assert len(gens) == 1  # a job never spans generations

    def test_job_wider_than_any_generation_rejected(self):
        trace = (tj(0, 0.0, wl("wide", n_nodes=3)),)
        with pytest.raises(ConfigError, match="largest generation"):
            run(trace, ClusterConfig(n_nodes=4, node_mix=MIX))

    def test_single_generation_mix_matches_homogeneous(self):
        """A skylake-only mix must reproduce the homogeneous schedule."""
        trace = tuple(
            tj(i, 3.0 * i, wl(f"h{i}", n_nodes=1 + i % 2), seed=i + 1)
            for i in range(6)
        )
        plain = run(trace, ClusterConfig(n_nodes=3))
        mixed = run(trace, ClusterConfig(n_nodes=3, node_mix=(("skylake", 3),)))
        assert [j.placement for j in mixed.jobs] == [j.placement for j in plain.jobs]
        assert [j.start_s for j in mixed.jobs] == [j.start_s for j in plain.jobs]
        assert [j.end_s for j in mixed.jobs] == [j.end_s for j in plain.jobs]
        assert mixed.n_backfilled == plain.n_backfilled

    def test_homogeneous_cluster_keeps_each_jobs_node_type(self):
        """No mix, no retarget: GPU jobs run on their GPU node next to
        SD530 jobs, through both the FCFS head and backfill."""
        # BT and the long 3-node job start at once; the 2-node head
        # then waits ~60 s while LU and the longer BT backfill.
        workloads = [
            bt_cuda_d().scaled_iterations(0.02),
            wl("sd-long", n_nodes=3, n_iterations=120),
            wl("sd-head", n_nodes=2),
            lu_cuda_d().scaled_iterations(0.05),
            bt_cuda_d().scaled_iterations(0.05),
            wl("sd-tail"),
        ]
        trace = tuple(tj(i, 0.0, w, seed=i + 1) for i, w in enumerate(workloads))
        pool = ExperimentPool(jobs=1, cache=RunCache())
        launched = []
        run_many = pool.run_many

        def recording_run_many(requests):
            launched.extend(requests)
            return run_many(requests)

        pool.run_many = recording_run_many
        report = ClusterSimulation(trace, ClusterConfig(n_nodes=4), pool=pool).run()
        assert report.n_jobs == len(trace)
        assert report.n_backfilled > 0
        assert len(launched) == len(trace)
        own = {job.seed: job.workload.node_config for job in trace}
        assert {req.workload.node_config.name for req in launched} == {
            SD530.name,
            bt_cuda_d().node_config.name,
        }
        for req in launched:
            assert req.workload.node_config == own[req.seed]

    def test_overflow_jobs_retargeted_to_granite_rapids(self):
        """Jobs spilling past the Skylake partition run on GNR silicon."""
        trace = tuple(tj(i, 0.0, wl(f"r{i}"), seed=i + 1) for i in range(4))
        sim = ClusterSimulation(
            trace,
            ClusterConfig(n_nodes=4, node_mix=MIX),
            pool=ExperimentPool(jobs=1, cache=RunCache()),
        )
        starters = [sim._claim(job, backfilled=False) for job in trace]
        configs = [s.job.workload.node_config for s in starters]
        assert configs[:2] == [SD530, SD530]
        assert configs[2:] == [GRANITE_RAPIDS_NODE, GRANITE_RAPIDS_NODE]
        placements = [s.placement for s in starters]
        assert placements == [(0,), (1,), (2,), (3,)]


# -- per-die telemetry from a job's engine ----------------------------------


class TestJobTelemetry:
    def test_tpmi_job_surfaces_per_die_limit_writes(self):
        """What ``job_telemetry`` arms: node telemetry carries one
        ``uncore/limit_write`` per die write, with die identity."""
        workload = wl("tele").retargeted(GRANITE_RAPIDS_NODE)
        result = run_workload(workload, seed=1, telemetry=True, pin_uncore_ghz=1.5)
        events = [
            e
            for e in result.nodes[0].telemetry.events
            if e.subsystem == "uncore" and e.kind == "limit_write"
        ]
        assert events
        payloads = [e.payload_dict for e in events]
        assert all(p["backend"] == "tpmi" for p in payloads)
        assert {p["die"] for p in payloads} == {0, 1}
        assert {p["socket"] for p in payloads} == {0, 1}

    def test_msr_job_limit_writes_are_package_scoped(self):
        result = run_workload(wl("tele-msr"), seed=1, telemetry=True, pin_uncore_ghz=1.8)
        events = [
            e
            for e in result.nodes[0].telemetry.events
            if e.subsystem == "uncore" and e.kind == "limit_write"
        ]
        assert events
        payloads = [e.payload_dict for e in events]
        assert all(p["backend"] == "msr" for p in payloads)
        assert {p["die"] for p in payloads} == {0}
