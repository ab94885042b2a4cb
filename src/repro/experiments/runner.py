"""Experiment runner: averaged multi-run comparisons.

Mirrors the paper's methodology: "For all the experiments, three runs
have been executed, and we are using the average of all three.  For a
fair comparison, all the executions for each application have been done
using the same set of nodes" — here, the same node *configuration* and
matched seeds.

Execution and caching live in :mod:`repro.experiments.parallel`: runs
are content-addressed (workload spec, configuration fields, seed,
scale — *not* display names), served from a two-layer memory/disk
cache, and cache misses fan out over worker processes when the default
pool is configured with ``jobs > 1``.  ``ExperimentPool.averages`` is
the one place seeded runs are averaged: its cells are ``RunRequest``
templates (workload, configuration, scale, pins, fault plan, engine),
each run once per seed.  :func:`run_averaged` and :func:`compare` are
its one-cell and one-workload forms; the table, figure and sweep
builders submit their whole batch through ``averages`` /
``compare_many`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ear.config import EarConfig
from ..sim.result import RunResult
from ..workloads.app import Workload
from .parallel import RunRequest, default_pool

__all__ = [
    "AveragedResult",
    "Comparison",
    "run_averaged",
    "compare",
    "standard_configs",
    "clear_run_cache",
]

DEFAULT_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class AveragedResult:
    """Mean over the repeated runs of one configuration."""

    workload: str
    config_name: str
    time_s: float
    dc_energy_j: float
    pck_energy_j: float
    avg_dc_power_w: float
    avg_pck_power_w: float
    avg_cpu_freq_ghz: float
    avg_imc_freq_ghz: float
    #: mean memory bandwidth (GB/s), for the sweeps' bandwidth penalty.
    gbs: float
    n_runs: int
    runs: tuple[RunResult, ...]
    #: seeds excluded from the average because their runs were
    #: quarantined by the pool (0 on the clean path).  ``n_runs`` counts
    #: the surviving seeds only, so coverage is ``n_runs / (n_runs +
    #: n_failed)``.
    n_failed: int = 0

    @classmethod
    def from_runs(
        cls,
        workload: str,
        config_name: str,
        runs: tuple[RunResult, ...],
        *,
        n_failed: int = 0,
    ) -> "AveragedResult":
        """Average seeded runs into one result (field-wise mean)."""
        n = len(runs)
        return cls(
            workload=workload,
            config_name=config_name,
            time_s=sum(r.time_s for r in runs) / n,
            dc_energy_j=sum(r.dc_energy_j for r in runs) / n,
            pck_energy_j=sum(r.pck_energy_j for r in runs) / n,
            avg_dc_power_w=sum(r.avg_dc_power_w for r in runs) / n,
            avg_pck_power_w=sum(r.avg_pck_power_w for r in runs) / n,
            avg_cpu_freq_ghz=sum(r.avg_cpu_freq_ghz for r in runs) / n,
            avg_imc_freq_ghz=sum(r.avg_imc_freq_ghz for r in runs) / n,
            gbs=sum(r.gbs for r in runs) / n,
            n_runs=n,
            runs=runs,
            n_failed=n_failed,
        )


@dataclass(frozen=True)
class Comparison:
    """One policy configuration against the no-policy reference."""

    workload: str
    config_name: str
    reference: AveragedResult
    result: AveragedResult

    @property
    def time_penalty(self) -> float:
        """Fractional execution-time increase vs. the baseline."""
        return self.result.time_s / self.reference.time_s - 1.0

    @property
    def power_saving(self) -> float:
        """Fractional DC-power saving vs. the baseline."""
        return 1.0 - self.result.avg_dc_power_w / self.reference.avg_dc_power_w

    @property
    def energy_saving(self) -> float:
        """Fractional DC-energy saving vs. the baseline."""
        return 1.0 - self.result.dc_energy_j / self.reference.dc_energy_j

    @property
    def pck_power_saving(self) -> float:
        """Fractional package-power saving vs. the baseline."""
        return 1.0 - self.result.avg_pck_power_w / self.reference.avg_pck_power_w

    @property
    def efficiency_ratio(self) -> float:
        """Energy saving per unit of time penalty (the paper's 'ratio')."""
        pen = self.time_penalty
        if pen <= 0:
            return float("inf") if self.energy_saving > 0 else 0.0
        return self.energy_saving / pen

    @property
    def runs_requested_cpu(self) -> float:
        """CPU clock the policy *requested* (node 0, last decision).

        Differs from the measured average under AVX-512 licence
        throttling: a policy may request nominal while the silicon runs
        the licence clock — the distinction the AVX512-model ablation
        measures.
        """
        for run in self.result.runs:
            for decision in reversed(run.decisions):
                if decision.freqs is not None:
                    return decision.freqs.cpu_ghz
        return self.result.avg_cpu_freq_ghz


def standard_configs(
    *,
    cpu_policy_th: float = 0.05,
    unc_policy_th: float = 0.02,
    coefficients_path: str | None = None,
    regions: bool = False,
) -> dict[str, EarConfig | None]:
    """The paper's three standard configurations.

    ``coefficients_path`` makes the policy-bearing configurations
    project through a fitted coefficient table (see
    :func:`repro.ear.models.resolve_coefficients` for the resolution
    order); the default ``None`` keeps the analytic coefficients.
    ``regions=True`` adds the region-based variant ``me_eufs_regions``
    (policy ``min_energy_regions``; see docs/POLICIES.md) — opt-in so
    the paper's three-way tables keep their exact shape.
    """
    configs: dict[str, EarConfig | None] = {
        "none": None,
        "me": EarConfig(
            use_explicit_ufs=False,
            cpu_policy_th=cpu_policy_th,
            coefficients_path=coefficients_path,
        ),
        "me_eufs": EarConfig(
            cpu_policy_th=cpu_policy_th,
            unc_policy_th=unc_policy_th,
            coefficients_path=coefficients_path,
        ),
    }
    if regions:
        configs["me_eufs_regions"] = EarConfig(
            policy="min_energy_regions",
            cpu_policy_th=cpu_policy_th,
            unc_policy_th=unc_policy_th,
            coefficients_path=coefficients_path,
        )
    return configs


def clear_run_cache(*, disk: bool = False) -> None:
    """Forget cached runs in the default pool (memory layer; optionally disk)."""
    default_pool().clear(disk=disk)


def run_averaged(
    workload: Workload,
    config: EarConfig | None,
    *,
    config_name: str = "",
    seeds=DEFAULT_SEEDS,
    scale: float = 1.0,
    engine: str = "scalar",
) -> AveragedResult:
    """Run one configuration ``len(seeds)`` times and average.

    ``scale`` shrinks iteration counts (tests use 0.2-0.5 to stay fast;
    the benchmark harness runs at full length).  ``seeds`` may be any
    iterable (it is normalised to a tuple once, so generators work).
    ``engine`` selects the simulation inner loop (scalar/batched).
    """
    return default_pool().averages(
        [(RunRequest(workload, config, scale=scale, engine=engine), config_name)],
        seeds=seeds,
    )[0]


def compare(
    workload: Workload,
    configs: dict[str, EarConfig | None],
    *,
    seeds=DEFAULT_SEEDS,
    scale: float = 1.0,
    engine: str = "scalar",
) -> dict[str, Comparison]:
    """Evaluate several configurations against the ``none`` reference.

    All (config, seed) runs are submitted to the pool as one batch, so
    with ``jobs > 1`` the whole comparison fans out at once.
    """
    return default_pool().compare_many(
        [(RunRequest(workload, None, scale=scale, engine=engine), configs)],
        seeds=seeds,
    )[0]
