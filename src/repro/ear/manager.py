"""Cluster job manager: the EARGM actuation loop.

EAR's energy-control service does more than warn: past the warning
thresholds EARGM instructs the node daemons to lower the *default*
frequency, which drags every policy's search range down with it.  This
module closes that loop for the reproduction: a :class:`ClusterManager`
accepts jobs, runs each with the EARGM-recommended default-P-state cap
folded into its configuration, records the outcome in the accounting
database, and feeds consumption back to EARGM.

This completes the three-service picture the paper opens with
("energy accounting, energy control and energy optimisation") in one
executable component.  Execution goes through the shared
:class:`~repro.experiments.parallel.ExperimentPool`, so a repeated
campaign job (same workload, same cap, same seed) is a cache hit
instead of a re-simulation — serial results are bit-identical to a
direct :func:`~repro.sim.engine.run_workload` call because the pool's
:class:`~repro.experiments.parallel.RunRequest` defaults match the
engine's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.faults import FaultPlan
from ..sim.result import RunResult
from ..workloads.app import Workload
from .accounting import AccountingDB, JobRecord, node_job_records
from .config import EarConfig
from .eargm import Eargm, WarningLevel

__all__ = ["SubmittedJob", "ClusterManager"]


@dataclass(frozen=True)
class SubmittedJob:
    """Outcome of one managed job."""

    job_id: int
    workload: str
    level_before: WarningLevel
    pstate_offset_applied: int
    result: RunResult


class ClusterManager:
    """Runs jobs under EARGM supervision.

    Parameters
    ----------
    eargm:
        The global energy manager holding the cluster budget.
    base_config:
        Site-default EAR configuration; per-job overrides (thresholds)
        can be passed to :meth:`submit`.
    accounting:
        Shared accounting database (``eacct``); a fresh one is created
        if not supplied.
    pool:
        Experiment pool executing the jobs; defaults to the
        process-default pool (cache-aware), so repeated campaign jobs
        hit the run cache.
    """

    def __init__(
        self,
        eargm: Eargm,
        base_config: EarConfig | None = None,
        accounting: AccountingDB | None = None,
        *,
        pool=None,
    ) -> None:
        from ..experiments.parallel import default_pool

        self.eargm = eargm
        self.base_config = base_config if base_config is not None else EarConfig()
        self.accounting = accounting if accounting is not None else AccountingDB()
        self.pool = pool if pool is not None else default_pool()
        self.history: list[SubmittedJob] = []

    def submit(
        self,
        workload: Workload,
        *,
        seed: int = 1,
        scale: float = 1.0,
        node_speed_spread: float = 0.0,
        fault_plan: FaultPlan | None = None,
        **config_overrides,
    ) -> SubmittedJob:
        """Run one job with the current budget-derived frequency cap."""
        from ..experiments.parallel import RunRequest

        level = self.eargm.level()
        offset = self.eargm.recommended_max_pstate_offset()
        cfg = self.base_config.with_overrides(
            default_pstate_offset=offset, **config_overrides
        )
        (result,) = self.pool.run_many(
            [
                RunRequest(
                    workload=workload,
                    ear_config=cfg,
                    seed=seed,
                    scale=scale,
                    node_speed_spread=node_speed_spread,
                    fault_plan=fault_plan,
                )
            ]
        )

        job_id = self.accounting.new_job_id()
        self.accounting.insert(
            JobRecord(
                job_id=job_id,
                workload=workload.name,
                policy=cfg.policy,
                cpu_policy_th=cfg.cpu_policy_th,
                unc_policy_th=cfg.unc_policy_th,
                nodes=node_job_records(result),
            )
        )
        self.eargm.report(result.dc_energy_j, result.time_s)
        job = SubmittedJob(
            job_id=job_id,
            workload=workload.name,
            level_before=level,
            pstate_offset_applied=offset,
            result=result,
        )
        self.history.append(job)
        return job

    @property
    def total_energy_j(self) -> float:
        """Campaign energy accounted so far, in joules."""
        return self.accounting.total_energy_j()
