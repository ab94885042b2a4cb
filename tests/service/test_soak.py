"""Soak: tens of thousands of streamed submissions, bounded memory.

Two altitudes:

* the **simulation level** pins the strict per-outcome contract — at a
  compliant pace no job ever starts under a warning level across
  multiple EARGM horizons, and harvesting keeps the resident state
  bounded;
* the **service level** pushes 10k submissions through the real socket
  protocol and asserts the rolled-up contract — everything completes,
  nothing is rejected, horizons roll, the event ring and history stay
  at their caps, and the scrape endpoint stays exposition-valid.
"""

import asyncio

import pytest

from repro.cluster.scheduler import ClusterConfig, ClusterSimulation
from repro.cluster.traces import TraceJob
from repro.ear.eargm import EargmConfig
from repro.experiments.parallel import ExperimentPool, RunCache
from repro.service import EarService, ServiceClient, ServiceConfig, service_workloads
from repro.telemetry import validate_exposition

#: compliant-pace soak shape: jobs at scale 0.05 run ~6.5 s on one of 8
#: nodes (service rate ~0.8 jobs/s); a 1 s inter-arrival spacing keeps
#: the queue near-empty, and a 2400 s horizon with ~3x energy headroom
#: must therefore never leave OK.
N_JOBS = 10_000
SPACING_S = 1.0
HORIZON_S = 2400.0
BUDGET_J = 15e6
SCALE = 0.05
SEEDS = 6


def scaled_workloads():
    registry = service_workloads()
    return [
        registry[name].scaled_iterations(SCALE)
        for name in ("synt.cpu.1n", "synt.mixed.1n", "synt.mem.1n")
    ]


@pytest.mark.slow
class TestStreamingSimSoak:
    def test_rolling_horizons_never_leave_ok_at_compliant_pace(self):
        workloads = scaled_workloads()
        pool = ExperimentPool(jobs=1, cache=RunCache(max_memory_entries=64))
        config = ClusterConfig(
            n_nodes=8,
            ear_config=None,
            eargm=EargmConfig(budget_j=BUDGET_J, horizon_s=HORIZON_S),
            telemetry=True,
        )
        sim = ClusterSimulation((), config, pool=pool)
        completed = 0
        events_seen = 0
        for i in range(N_JOBS):
            wl = workloads[i % len(workloads)]
            sim.submit_job(
                TraceJob(
                    index=i,
                    submit_s=i * SPACING_S,
                    workload=wl,
                    seed=1 + i % SEEDS,
                    est_time_s=wl.total_ref_time_s * 1.3,
                )
            )
            if i % 1000 == 999:
                sim.drain_events()
                for outcome in sim.harvest_outcomes():
                    completed += 1
                    # the whole point: compliant pace never trips a cap
                    assert outcome.level_at_start.name == "OK", outcome
                    assert outcome.pstate_offset == 0
                assert sim.harvest_failures() == ()
                events_seen += len(sim.drain_telemetry_events())
                # harvested state stays bounded between chunks
                assert len(sim._outcomes) == 0
                assert len(sim.telemetry.events) == 0
        sim.drain_events()
        for outcome in sim.harvest_outcomes():
            completed += 1
            assert outcome.level_at_start.name == "OK"
            assert outcome.pstate_offset == 0
        events_seen += len(sim.drain_telemetry_events())

        assert completed == N_JOBS
        assert sim.eargm.horizons_completed >= 3
        assert sim.eargm.level().name == "OK"
        assert events_seen >= N_JOBS  # at least one event per job
        # the cache absorbed the repetition: only the unique
        # (workload, seed) combinations ever simulated
        unique = len({(i % len(workloads), i % SEEDS) for i in range(N_JOBS)})
        assert pool.stats.simulations == unique
        assert len(pool.cache) <= 64


@pytest.mark.slow
class TestServiceSoak:
    def test_service_sustains_10k_submissions(self, tmp_path):
        async def scenario():
            config = ServiceConfig(
                socket_path=str(tmp_path / "ear.sock"),
                policy="none",
                budget_mj=BUDGET_J / 1e6,
                horizon_s=HORIZON_S,
                max_pending=2 * N_JOBS,
                journal=False,
                events_ring=4096,
                history_limit=256,
                max_cache_entries=64,
            )
            service = EarService(config, pool=ExperimentPool(jobs=1, cache=RunCache()))
            await service.start()

            workloads = ("synt.cpu.1n", "synt.mixed.1n", "synt.mem.1n")

            def submit_share(offset, step):
                client = ServiceClient(config.socket_path, timeout=60.0)
                for i in range(offset, N_JOBS, step):
                    client.submit(
                        workloads[i % len(workloads)],
                        seed=1 + i % SEEDS,
                        scale=SCALE,
                        submit_s=i * SPACING_S,
                        tag=i,
                    )

            n_clients = 4
            await asyncio.gather(
                *(
                    asyncio.to_thread(submit_share, c, n_clients)
                    for c in range(n_clients)
                )
            )
            status = await asyncio.to_thread(
                ServiceClient(config.socket_path, timeout=600.0).drain
            )
            row = status["clusters"]["default"]
            assert row["submitted"] == N_JOBS
            assert row["completed"] == N_JOBS
            assert row["failed"] == 0
            assert row["rejected"] == 0
            assert row["pending"] == 0
            assert row["eargm"]["level"] == "OK"
            assert row["eargm"]["horizons_completed"] >= 3

            # bounded memory: ring and history pinned at their caps,
            # nothing left unharvested inside the simulation
            worker = service.workers["default"]
            assert len(service.ring) <= config.events_ring
            assert service.ring.total_seen >= N_JOBS
            assert service.ring.dropped > 0  # the ring really did bound
            assert len(worker.recent) <= config.history_limit
            assert len(worker.sim._outcomes) == 0
            assert len(worker.sim.telemetry.events) == 0
            assert len(service.pool.cache) <= 64

            # the scrape endpoint survives the soak exposition-valid
            client = ServiceClient(config.socket_path, timeout=60.0)
            http_status, body = await asyncio.to_thread(client.http_get, "/metrics")
            assert http_status == 200
            families = validate_exposition(body)
            assert "repro_service_jobs_completed" in families

            await service.shutdown()

        asyncio.run(scenario())
