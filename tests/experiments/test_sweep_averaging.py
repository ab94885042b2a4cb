"""The sweeps average through ``ExperimentPool.averages``.

The oracles below are the sweeps' former hand-rolled reductions: one
flat ``run_many`` batch, sliced per point and averaged with explicit
``sum(...) / n`` means.  The sweeps must reproduce them exactly (``==``,
not approx), which pins the byte-identity of every printed sweep.
"""

import pytest

from repro.ear.config import EarConfig
from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.motivation import SweepPoint, UncoreSweep, uncore_sweep
from repro.experiments.parallel import ExperimentPool, RunCache, RunRequest
from repro.experiments.resilience import (
    ResiliencePoint,
    ResilienceSweep,
    reference_fault_plan,
    resilience_sweep,
)
from repro.hw.units import ratio_to_ghz
from repro.sim.faults import NodeHealth
from repro.telemetry import ladder_event_counts
from tests.conftest import make_fast_workload

SEEDS = (1, 2, 3)
SCALE = 0.3


@pytest.fixture()
def workload():
    return make_fast_workload(n_iterations=60)


@pytest.fixture()
def pool(monkeypatch):
    """A fresh process-default pool, which the sweeps submit to."""
    pool = ExperimentPool(jobs=1, cache=RunCache())
    monkeypatch.setattr(parallel, "_default_pool", pool)
    return pool


def oracle_uncore_sweep(pool, workload, *, cpu_ghz, min_ratio, max_ratio):
    uncore_ghzs = [ratio_to_ghz(r) for r in range(max_ratio, min_ratio - 1, -1)]
    results = pool.run_many(
        [
            RunRequest(
                workload=workload,
                ear_config=None,
                seed=s,
                scale=SCALE,
                pin_cpu_ghz=cpu_ghz,
                pin_uncore_ghz=f_unc,
            )
            for f_unc in [None, *uncore_ghzs]
            for s in SEEDS
        ]
    )
    n = len(SEEDS)
    groups = [results[i : i + n] for i in range(0, len(results), n)]

    def averaged(runs):
        return (
            sum(r.time_s for r in runs) / n,
            sum(r.avg_dc_power_w for r in runs) / n,
            sum(r.dc_energy_j for r in runs) / n,
            sum(r.gbs for r in runs) / n,
            sum(r.avg_imc_freq_ghz for r in runs) / n,
        )

    ref_t, ref_p, ref_e, ref_gbs, ref_imc = averaged(groups[0])
    points = []
    for f_unc, group in zip(uncore_ghzs, groups[1:]):
        t, p, e, gbs, imc = averaged(group)
        points.append(
            SweepPoint(
                uncore_ghz=f_unc,
                time_penalty=t / ref_t - 1.0,
                power_saving=1.0 - p / ref_p,
                energy_saving=1.0 - e / ref_e,
                gbs_penalty=1.0 - gbs / ref_gbs,
                avg_imc_ghz=imc,
            )
        )
    return UncoreSweep(
        workload=workload.name,
        cpu_ghz=cpu_ghz,
        hw_reference_imc_ghz=ref_imc,
        points=tuple(points),
    )


def oracle_resilience_sweep(pool, workload, config, *, intensities):
    plans = [reference_fault_plan().at_intensity(x) for x in intensities]
    results = pool.run_many(
        [
            RunRequest(workload=workload, ear_config=None, seed=s, scale=SCALE)
            for s in SEEDS
        ]
        + [
            RunRequest(
                workload=workload,
                ear_config=config,
                seed=s,
                scale=SCALE,
                fault_plan=plan,
                telemetry=True,
            )
            for plan in plans
            for s in SEEDS
        ]
    )
    n = len(SEEDS)
    ref_runs = results[:n]
    ref_time = sum(r.time_s for r in ref_runs) / n
    ref_energy = sum(r.dc_energy_j for r in ref_runs) / n
    ref_power = sum(r.avg_dc_power_w for r in ref_runs) / n
    points = []
    for i, intensity in enumerate(intensities, start=1):
        runs = results[i * n : (i + 1) * n]
        time_s = sum(r.time_s for r in runs) / n
        energy = sum(r.dc_energy_j for r in runs) / n
        power = sum(r.avg_dc_power_w for r in runs) / n
        ladder: dict[str, int] = {}
        for r in runs:
            for name, count in ladder_event_counts(r):
                ladder[name] = ladder.get(name, 0) + count
        points.append(
            ResiliencePoint(
                intensity=intensity,
                time_penalty=time_s / ref_time - 1.0,
                power_saving=1.0 - power / ref_power,
                energy_saving=1.0 - energy / ref_energy,
                health=NodeHealth.merge([r.health for r in runs]),
                n_runs=len(runs),
                ladder_events=tuple(sorted(ladder.items())),
            )
        )
    return ResilienceSweep(
        workload=workload.name, config_name="me_eufs", points=tuple(points)
    )


class TestExactlyTheHandRolledMeans:
    def test_uncore_sweep(self, workload, pool):
        kw = dict(cpu_ghz=2.3, min_ratio=20, max_ratio=24)
        sweep = uncore_sweep(workload, seeds=SEEDS, scale=SCALE, **kw)
        assert pool.stats.batches == 1
        assert sweep == oracle_uncore_sweep(pool, workload, **kw)
        assert pool.stats.simulations == 6 * len(SEEDS)  # the oracle hit the cache

    def test_resilience_sweep(self, workload, pool):
        intensities = (0.0, 1.0, 4.0)
        sweep = resilience_sweep(
            workload,
            EarConfig(),
            intensities=intensities,
            seeds=SEEDS,
            scale=SCALE,
            telemetry=True,
        )
        assert pool.stats.batches == 1
        oracle = oracle_resilience_sweep(
            pool, workload, EarConfig(), intensities=intensities
        )
        assert sweep == oracle
        assert any(p.ladder_events for p in sweep.points)
        assert pool.stats.simulations == 4 * len(SEEDS)


class TestEmptySeeds:
    """Every averaging entry point rejects an empty seed set the same way."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda wl: parallel.default_pool().averages(
                [(RunRequest(wl, None, scale=SCALE), "none")], seeds=()
            ),
            lambda wl: uncore_sweep(wl, cpu_ghz=2.4, seeds=(), scale=SCALE),
            lambda wl: resilience_sweep(wl, seeds=(), scale=SCALE),
        ],
        ids=["averages", "uncore_sweep", "resilience_sweep"],
    )
    def test_rejected_before_any_run(self, workload, pool, entry):
        with pytest.raises(ExperimentError, match="empty seed set"):
            entry(workload)
        assert pool.stats.simulations == 0
