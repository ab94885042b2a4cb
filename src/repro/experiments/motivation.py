"""The motivation study: fixed-uncore sweeps (the paper's Figure 1).

Section II of the paper runs BT-MZ and LU with the CPU frequency the
policy would select and the uncore (a) managed by hardware — the
reference — and (b) pinned to every value from 2.4 GHz down to 1.2 GHz
in 0.1 GHz steps, reporting time penalty, DC power saving, energy
saving and memory-bandwidth penalty against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.units import ratio_to_ghz
from ..workloads.app import Workload
from ..workloads.kernels import bt_mz_c_mpi, lu_d_mpi
from .parallel import RunRequest, default_pool
from .retry import require_complete

__all__ = ["SweepPoint", "UncoreSweep", "uncore_sweep", "figure1"]


@dataclass(frozen=True)
class SweepPoint:
    """One fixed-uncore configuration vs. the HW-UFS reference."""

    uncore_ghz: float
    time_penalty: float
    power_saving: float
    energy_saving: float
    gbs_penalty: float
    avg_imc_ghz: float


@dataclass(frozen=True)
class UncoreSweep:
    """Full sweep result for one kernel."""

    workload: str
    cpu_ghz: float
    hw_reference_imc_ghz: float
    points: tuple[SweepPoint, ...]


def uncore_sweep(
    workload: Workload,
    *,
    cpu_ghz: float,
    seeds=(1, 2, 3),
    scale: float = 1.0,
    min_ratio: int = 12,
    max_ratio: int = 24,
    engine: str = "scalar",
) -> UncoreSweep:
    """Run the fixed-uncore sweep for one workload.

    The CPU clock is pinned at the policy-selected frequency for every
    run (including the reference), isolating the uncore's effect — the
    paper's experimental design.  The reference and every pinned point
    are submitted to the execution pool as one batch, so a parallel
    pool fans the whole sweep out at once; averaging happens per point
    in seed order, keeping the numbers identical to a serial sweep.
    """
    seeds = tuple(seeds)
    uncore_ghzs = [ratio_to_ghz(r) for r in range(max_ratio, min_ratio - 1, -1)]
    requests = [
        RunRequest(
            workload=workload,
            ear_config=None,
            seed=s,
            scale=scale,
            pin_cpu_ghz=cpu_ghz,
            pin_uncore_ghz=f_unc,
            engine=engine,
        )
        for f_unc in [None, *uncore_ghzs]
        for s in seeds
    ]
    results = default_pool().run_many(requests)
    require_complete(results)
    n = len(seeds)
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


def figure1(*, seeds=(1, 2, 3), scale: float = 1.0) -> dict[str, UncoreSweep]:
    """Figure 1(a): BT-MZ and 1(b): LU fixed-uncore sweeps.

    CPU frequencies are the ones the policy chose in the Table I runs:
    nominal for BT-MZ, one P-state down for LU.
    """
    return {
        "BT-MZ": uncore_sweep(bt_mz_c_mpi(), cpu_ghz=2.4, seeds=seeds, scale=scale),
        "LU": uncore_sweep(lu_d_mpi(), cpu_ghz=2.3, seeds=seeds, scale=scale),
    }
