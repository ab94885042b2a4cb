"""Synthetic job-trace generation for the cluster simulator.

A trace is the input side of a scheduling study: who arrives when,
asking for how many nodes, to run what.  Traces here are drawn from a
seeded generator so a campaign is exactly reproducible — the same
trace seed yields the same arrival times, the same workload mix and
the same per-job simulation seeds, which is what lets the acceptance
tests demand bit-identical schedules.

The workload mix comes from the existing synthetic-workload registry
(:func:`repro.workloads.generator.synthetic_workload`): a spread over
compute-bound, mixed and memory-bound jobs at 1–4 nodes, i.e. the
boundedness space in which the paper's policies differentiate.  The
``min_energy`` + explicit-UFS policy saves most on the memory-lean
jobs (uncore descends) while the memory-bound ones bound the penalty —
a mix, not a best case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..hw.node import SD530, NodeConfig
from ..workloads.app import Workload
from ..workloads.generator import synthetic_workload

__all__ = ["TraceJob", "TraceConfig", "trace_workload_mix", "generate_trace"]


@dataclass(frozen=True)
class TraceJob:
    """One job of a campaign trace."""

    index: int
    #: arrival on the cluster clock.
    submit_s: float
    workload: Workload
    #: per-job simulation seed (derived from the trace seed).
    seed: int
    #: the "user-requested walltime": what conservative backfill uses
    #: for reservations.  Unlike a production scheduler the simulator
    #: does not kill overrunning jobs — completions reschedule off the
    #: actual run time.
    est_time_s: float


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a synthetic campaign."""

    n_jobs: int = 12
    seed: int = 0
    #: mean of the exponential inter-arrival process.
    mean_interarrival_s: float = 20.0
    #: fraction of jobs arriving together at t=0 (the morning burst
    #: that makes backfill and budget pace interesting).
    burst_fraction: float = 0.25
    #: iteration-count scale applied to every job's workload.
    scale: float = 1.0
    #: walltime request = reference time x this margin.
    est_margin: float = 1.3

    def __post_init__(self) -> None:
        if self.n_jobs <= 0:
            raise ConfigError("a trace needs at least one job")
        if not 0 < self.mean_interarrival_s < math.inf:
            raise ConfigError("mean_interarrival_s must be finite and positive")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise ConfigError("burst_fraction must be in [0, 1]")
        if not 0 < self.scale < math.inf:
            raise ConfigError("scale must be finite and positive")
        if self.est_margin < 1.0:
            raise ConfigError("est_margin below 1 would make backfill optimistic")


@dataclass(frozen=True)
class _MixEntry:
    workload: Workload
    weight: float


def _mix_workload(
    name: str,
    node_config: NodeConfig,
    *,
    core: float,
    unc: float,
    mem: float,
    n_nodes: int,
    n_iterations: int,
) -> Workload:
    return synthetic_workload(
        name=name,
        node_config=node_config,
        core_share=core,
        unc_share=unc,
        mem_share=mem,
        n_nodes=n_nodes,
        n_iterations=n_iterations,
    )


def trace_workload_mix(
    node_config: NodeConfig = SD530,
) -> tuple[tuple[Workload, float], ...]:
    """The default ``(workload, weight)`` mix of a campaign.

    Sizes and boundedness follow typical HPC accounting splits: many
    small jobs, few wide ones; compute-heavy codes dominate but a
    quarter of the node-hours are memory-bound.
    """
    entries = (
        _MixEntry(
            _mix_workload(
                "synt.cpu.1n", node_config, core=0.88, unc=0.05, mem=0.04,
                n_nodes=1, n_iterations=260,
            ),
            0.30,
        ),
        _MixEntry(
            _mix_workload(
                "synt.mixed.1n", node_config, core=0.55, unc=0.12, mem=0.25,
                n_nodes=1, n_iterations=220,
            ),
            0.25,
        ),
        _MixEntry(
            _mix_workload(
                "synt.mem.1n", node_config, core=0.20, unc=0.18, mem=0.55,
                n_nodes=1, n_iterations=170,
            ),
            0.15,
        ),
        _MixEntry(
            _mix_workload(
                "synt.cpu.2n", node_config, core=0.85, unc=0.06, mem=0.05,
                n_nodes=2, n_iterations=300,
            ),
            0.15,
        ),
        _MixEntry(
            _mix_workload(
                "synt.mixed.4n", node_config, core=0.50, unc=0.14, mem=0.28,
                n_nodes=4, n_iterations=340,
            ),
            0.15,
        ),
    )
    return tuple((e.workload, e.weight) for e in entries)


def generate_trace(
    config: TraceConfig,
    *,
    workloads: tuple[tuple[Workload, float], ...] | None = None,
) -> tuple[TraceJob, ...]:
    """Draw one seeded campaign trace.

    All randomness (arrival gaps, workload choice, per-job seeds)
    flows from ``config.seed`` through one generator, consumed in a
    fixed order — the trace is a pure function of its config.
    """
    mix = trace_workload_mix() if workloads is None else tuple(workloads)
    if not mix:
        raise ConfigError("the workload mix cannot be empty")
    rng = np.random.default_rng(config.seed)
    weights = np.array([w for _, w in mix], dtype=float)
    if np.any(weights <= 0):
        raise ConfigError("workload-mix weights must be positive")
    weights = weights / weights.sum()

    n_burst = int(round(config.n_jobs * config.burst_fraction))
    gaps = rng.exponential(config.mean_interarrival_s, size=config.n_jobs)
    picks = rng.choice(len(mix), size=config.n_jobs, p=weights)
    seeds = rng.integers(1, 2**31 - 1, size=config.n_jobs)

    jobs = []
    at = 0.0
    for i in range(config.n_jobs):
        if i >= n_burst:
            at += float(gaps[i])
        wl = mix[int(picks[i])][0]
        if config.scale != 1.0:
            wl = wl.scaled_iterations(config.scale)
        jobs.append(
            TraceJob(
                index=i,
                submit_s=at,
                workload=wl,
                seed=int(seeds[i]),
                est_time_s=wl.total_ref_time_s * config.est_margin,
            )
        )
    return tuple(jobs)
