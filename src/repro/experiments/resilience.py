"""Resilience experiment: energy policies on a hostile node.

The paper evaluates EAR on clean hardware; production nodes are not
clean.  This experiment sweeps the *intensity* of a reference fault
regime (all five channels of :class:`~repro.sim.faults.FaultPlan`
scaled together) and reports how the policy's energy savings and time
penalty degrade as sensors stall, counters corrupt, MSR writes fail and
thermal clamps bite.  The robustness claim being demonstrated: savings
shrink *gracefully* toward the no-policy baseline — the runtime never
crashes, and the watchdog keeps a blinded node at its safe defaults
instead of chasing garbage signatures.

Savings are computed against the clean no-policy reference (the same
reference the paper's tables use), so a point at intensity 0 reproduces
the standard comparison exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..ear.config import EarConfig
from ..sim.faults import FaultPlan, NodeHealth
from ..telemetry import ladder_event_counts
from ..workloads.app import Workload
from .parallel import RunRequest, default_pool
from .runner import DEFAULT_SEEDS, Comparison

__all__ = [
    "InfraResiliencePoint",
    "InfraResilienceSweep",
    "ResiliencePoint",
    "ResilienceSweep",
    "infra_resilience_sweep",
    "reference_fault_plan",
    "reference_infra_plan",
    "resilience_sweep",
]

#: Default intensity grid: clean, mild, the reference regime, and two
#: escalations well past anything a sane node produces.
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0, 2.0, 4.0)


def reference_fault_plan(*, seed: int = 0) -> FaultPlan:
    """The intensity-1.0 fault regime: every channel active at rates
    that fire several times over a multi-minute job."""
    return FaultPlan(
        seed=seed,
        meter_stall_rate=0.04,
        meter_dropout_rate=0.02,
        counter_corruption_rate=0.04,
        msr_failure_rate=0.05,
        rapl_wrap_rate=0.02,
        throttle_rate=0.01,
    )


@dataclass(frozen=True)
class ResiliencePoint:
    """One fault intensity: paper metrics + aggregated health."""

    intensity: float
    time_penalty: float
    power_saving: float
    energy_saving: float
    #: node healths summed over nodes and seeds at this intensity.
    health: NodeHealth
    n_runs: int
    #: degradation-ladder event tallies ("subsystem/kind", count) summed
    #: over the runs at this intensity; empty unless the sweep executed
    #: with ``telemetry=True``.
    ladder_events: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class ResilienceSweep:
    """A full fault-intensity sweep of one workload under one config."""

    workload: str
    config_name: str
    points: tuple[ResiliencePoint, ...]


def resilience_sweep(
    workload: Workload,
    config: EarConfig | None = None,
    *,
    config_name: str = "me_eufs",
    intensities=DEFAULT_INTENSITIES,
    seeds=DEFAULT_SEEDS,
    scale: float = 1.0,
    base_plan: FaultPlan | None = None,
    telemetry: bool = False,
) -> ResilienceSweep:
    """Sweep fault intensity; return savings vs the clean reference.

    The clean baseline and every intensity are averaged in one
    :meth:`~repro.experiments.parallel.ExperimentPool.averages` batch,
    so the sweep parallelises, caches and excludes quarantined seeds
    like every other experiment.  ``base_plan`` overrides the reference
    regime that the intensities scale.  ``telemetry=True`` records the
    structured event stream in every faulted run and reports per-point
    degradation-ladder tallies (``ResiliencePoint.ladder_events``) —
    each hardening reaction counted from the events themselves rather
    than inferred from aggregate health numbers.
    """
    if config is None:
        config = EarConfig()
    intensities = tuple(intensities)
    base = base_plan if base_plan is not None else reference_fault_plan()
    faulted = RunRequest(workload, config, scale=scale, telemetry=telemetry)
    reference, *averaged = default_pool().averages(
        [(RunRequest(workload, None, scale=scale), "none")]
        + [
            (
                replace(faulted, fault_plan=base.at_intensity(intensity)),
                f"{config_name} at intensity {intensity:.2f}",
            )
            for intensity in intensities
        ],
        seeds=seeds,
    )

    points = []
    for intensity, result in zip(intensities, averaged):
        c = Comparison(workload.name, config_name, reference, result)
        ladder: dict[str, int] = {}
        for r in result.runs:
            for name, count in ladder_event_counts(r):
                ladder[name] = ladder.get(name, 0) + count
        points.append(
            ResiliencePoint(
                intensity=intensity,
                time_penalty=c.time_penalty,
                power_saving=c.power_saving,
                energy_saving=c.energy_saving,
                health=NodeHealth.merge([r.health for r in result.runs]),
                n_runs=result.n_runs,
                ladder_events=tuple(sorted(ladder.items())),
            )
        )
    return ResilienceSweep(
        workload=workload.name, config_name=config_name, points=tuple(points)
    )


# -- control-plane (infrastructure) resilience --------------------------------


def reference_infra_plan(*, seed: int = 0) -> FaultPlan:
    """The intensity-1.0 *infrastructure* regime.

    Layers the control-plane channels — node crashes mid-job, EARDBD
    restarts — on top of the hardware reference regime, so one
    intensity knob scales both domains together (the production
    situation: a cluster losing nodes is also a cluster with flaky
    meters).
    """
    return replace(
        reference_fault_plan(seed=seed),
        node_crash_rate=0.08,
        node_reboot_s=90.0,
        eardbd_restart_rate=0.2,
    )


@dataclass(frozen=True)
class InfraResiliencePoint:
    """One infra fault intensity: completion, requeue and retry tallies."""

    intensity: float
    n_jobs: int
    n_completed: int
    n_failed: int
    #: crash-killed attempts the scheduler requeued.
    n_requeues: int
    #: node-crash events injected.
    n_node_failures: int
    #: EARDBD daemon restarts survived (buffered reports replayed).
    eardbd_restarts: int
    #: experiment-pool retries observed while this point executed.
    pool_retries: int
    makespan_s: float
    total_energy_j: float
    #: True when the EARDBD conservation law held exactly at the end.
    eardbd_reconciled: bool


@dataclass(frozen=True)
class InfraResilienceSweep:
    """A full infra-intensity sweep of one cluster campaign."""

    policy: str
    n_nodes: int
    n_jobs: int
    points: tuple[InfraResiliencePoint, ...]


def infra_resilience_sweep(
    *,
    intensities=DEFAULT_INTENSITIES,
    n_jobs: int = 10,
    n_nodes: int = 6,
    seed: int = 0,
    scale: float = 0.3,
    config: EarConfig | None = None,
    base_plan: FaultPlan | None = None,
) -> InfraResilienceSweep:
    """Sweep the control-plane fault channels over a cluster campaign.

    Replays the same seeded trace at each intensity of the reference
    infra regime (:func:`reference_infra_plan`, hardware channels
    included) and tallies what the resilient control plane did: jobs
    completed vs. terminally failed, crash requeues, EARDBD restarts
    survived, pool retries — plus makespan/energy so the cost of the
    churn is visible.  Intensity 0 is the clean campaign.
    """
    from ..cluster.scheduler import ClusterConfig, ClusterSimulation
    from ..cluster.traces import TraceConfig, generate_trace

    trace = generate_trace(TraceConfig(n_jobs=n_jobs, seed=seed, scale=scale))
    base = base_plan if base_plan is not None else reference_infra_plan()
    intensities = tuple(intensities)
    plans = [base.at_intensity(intensity) for intensity in intensities]
    pool = default_pool()
    points = []
    for intensity, plan in zip(intensities, plans):
        cluster = ClusterConfig(
            n_nodes=n_nodes, ear_config=config, fault_plan=plan
        )
        retries_before = pool.stats.retries
        sim = ClusterSimulation(trace, cluster, pool=pool)
        report = sim.run()
        points.append(
            InfraResiliencePoint(
                intensity=intensity,
                n_jobs=n_jobs,
                n_completed=len(report.jobs),
                n_failed=len(report.failures),
                n_requeues=report.n_requeues,
                n_node_failures=report.n_node_failures,
                eardbd_restarts=report.eardbd.restarts,
                pool_retries=pool.stats.retries - retries_before,
                makespan_s=report.makespan_s,
                total_energy_j=report.total_energy_j,
                eardbd_reconciled=report.eardbd.reconciles_with(
                    sim.accounting, pending=sim.eardbd.pending
                ),
            )
        )
    return InfraResilienceSweep(
        policy=config.policy if config is not None else "none",
        n_nodes=n_nodes,
        n_jobs=n_jobs,
        points=tuple(points),
    )
