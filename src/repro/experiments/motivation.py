"""The motivation study: fixed-uncore sweeps (the paper's Figure 1).

Section II of the paper runs BT-MZ and LU with the CPU frequency the
policy would select and the uncore (a) managed by hardware — the
reference — and (b) pinned to every value from 2.4 GHz down to 1.2 GHz
in 0.1 GHz steps, reporting time penalty, DC power saving, energy
saving and memory-bandwidth penalty against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..hw.units import ratio_to_ghz
from ..workloads.app import Workload
from ..workloads.kernels import bt_mz_c_mpi, lu_d_mpi
from .parallel import RunRequest, default_pool
from .runner import Comparison

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
    min_ratio: int = 12,
    max_ratio: int = 24,
    **fields,
) -> UncoreSweep:
    """Run the fixed-uncore sweep for one workload.

    ``fields`` are further :class:`~repro.sim.engine.RunSpec` fields
    shared by every run of the sweep (``scale``, ``engine``, ...).

    The CPU clock is pinned at the policy-selected frequency for every
    run (including the reference), isolating the uncore's effect — the
    paper's experimental design.  The reference and every pinned point
    are averaged in one :meth:`~repro.experiments.parallel.ExperimentPool
    .averages` batch, so a parallel pool fans the whole sweep out at
    once and a quarantined seed is excluded exactly as in the tables.
    """
    uncore_ghzs = [ratio_to_ghz(r) for r in range(max_ratio, min_ratio - 1, -1)]
    base = RunRequest(workload, None, pin_cpu_ghz=cpu_ghz, **fields)
    reference, *pinned = default_pool().averages(
        [(base, "HW-UFS reference")]
        + [
            (replace(base, pin_uncore_ghz=f_unc), f"uncore {f_unc:.1f} GHz")
            for f_unc in uncore_ghzs
        ],
        seeds=seeds,
    )
    points = []
    for f_unc, result in zip(uncore_ghzs, pinned):
        c = Comparison(workload.name, result.config_name, reference, result)
        points.append(
            SweepPoint(
                uncore_ghz=f_unc,
                time_penalty=c.time_penalty,
                power_saving=c.power_saving,
                energy_saving=c.energy_saving,
                gbs_penalty=1.0 - result.gbs / reference.gbs,
                avg_imc_ghz=result.avg_imc_freq_ghz,
            )
        )
    return UncoreSweep(
        workload=workload.name,
        cpu_ghz=cpu_ghz,
        hw_reference_imc_ghz=reference.avg_imc_freq_ghz,
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
