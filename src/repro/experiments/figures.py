"""Builders for the paper's evaluation figures (3-8).

Each figure is a set of bar groups: configurations on the x-axis and
(time penalty, DC power saving, energy saving) bars — the paper's
recurring plot shape.  Builders return the series as row dicts so the
benches print them and tests assert their ordering.  A figure with
several series submits all of them as one ``compare_many`` batch.
"""

from __future__ import annotations

from ..ear.config import EarConfig
from ..workloads.applications import (
    afid,
    bqcd,
    bt_mz_d,
    dumses,
    gromacs_ion_channel,
    gromacs_lignocellulose,
    hpcg,
    pop,
)
from .parallel import RunRequest, default_pool
from .runner import DEFAULT_SEEDS

__all__ = [
    "figure3_bqcd",
    "figure4_btmz",
    "figure5_gromacs1",
    "figure6_gromacs2",
    "figure7_hpcg_pop",
    "figure8_dumses_afid",
]


def _series(items, *, seeds, scale) -> list[list[dict]]:
    """One bar-group series per ``(workload, configs)`` item, one batch."""
    return [
        [
            {
                "config": name,
                "time_penalty": c.time_penalty,
                "power_saving": c.power_saving,
                "energy_saving": c.energy_saving,
                "efficiency_ratio": c.efficiency_ratio,
                "avg_cpu_ghz": c.result.avg_cpu_freq_ghz,
                "avg_imc_ghz": c.result.avg_imc_freq_ghz,
            }
            for name, c in cmp_.items()
        ]
        for cmp_ in default_pool().compare_many(
            [(RunRequest(wl, None, scale=scale), configs) for wl, configs in items],
            seeds=seeds,
        )
    ]


def figure3_bqcd(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Figure 3: BQCD — ME vs ME+eU at unc_policy_th 1 %, 2 %, 3 %.

    cpu_policy_th = 3 % throughout; the uncore threshold controls the
    descent depth, and power saving scales better than time penalty.
    """
    configs = {
        "me": EarConfig(use_explicit_ufs=False, cpu_policy_th=0.03),
        "me_eufs_1": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.01),
        "me_eufs_2": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.02),
        "me_eufs_3": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.03),
    }
    return _series([(bqcd(), configs)], seeds=seeds, scale=scale)[0]


def figure4_btmz(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Figure 4: BT-MZ — unc_policy_th 0 %, 1 %, 2 % at cpu_policy_th 3 %.

    The 0 % case shows the uncore can be lowered with no per-iteration
    slowdown at all while still saving power.
    """
    configs = {
        "me": EarConfig(use_explicit_ufs=False, cpu_policy_th=0.03),
        "me_eufs_0": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.0),
        "me_eufs_1": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.01),
        "me_eufs_2": EarConfig(cpu_policy_th=0.03, unc_policy_th=0.02),
    }
    return _series([(bt_mz_d(), configs)], seeds=seeds, scale=scale)[0]


def figure5_gromacs1(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> dict[str, list[dict]]:
    """Figure 5: GROMACS(I) — HW-guided vs not-guided uncore search.

    At cpu_policy_th 3 % and 5 %: ME, ME+NG-U (search starts at the
    silicon maximum) and ME+eU (search starts at the HW selection, the
    default).  Both explicit variants beat plain ME; the HW-guided one
    converges in far fewer signature windows.
    """
    wl = gromacs_ion_channel()
    per_th = {
        th: {
            "me": EarConfig(use_explicit_ufs=False, cpu_policy_th=th),
            "me_ngu": EarConfig(cpu_policy_th=th, unc_policy_th=0.02, hw_guided_imc=False),
            "me_eufs": EarConfig(cpu_policy_th=th, unc_policy_th=0.02),
        }
        for th in (0.03, 0.05)
    }
    series = _series(
        [(wl, configs) for configs in per_th.values()], seeds=seeds, scale=scale
    )
    return {f"cpu_th_{int(th * 100)}": rows for th, rows in zip(per_th, series)}


def figure6_gromacs2(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Figure 6: GROMACS(II) — ME vs ME+eU at 5 %/2 %.

    The hardware already sinks the uncore for this comm-bound run; the
    explicit policy pins it there, stopping upward excursions.
    """
    configs = {
        "me": EarConfig(use_explicit_ufs=False, cpu_policy_th=0.05),
        "me_eufs": EarConfig(cpu_policy_th=0.05, unc_policy_th=0.02),
    }
    return _series([(gromacs_lignocellulose(), configs)], seeds=seeds, scale=scale)[0]


def figure7_hpcg_pop(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> dict[str, list[dict]]:
    """Figure 7: HPCG (a) and POP (b) — ME vs ME+eU at 5 %/2 %."""
    configs = {
        "me": EarConfig(use_explicit_ufs=False, cpu_policy_th=0.05),
        "me_eufs": EarConfig(cpu_policy_th=0.05, unc_policy_th=0.02),
    }
    workloads = {"HPCG": hpcg(), "POP": pop()}
    series = _series(
        [(wl, configs) for wl in workloads.values()], seeds=seeds, scale=scale
    )
    return dict(zip(workloads, series))


def figure8_dumses_afid(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> dict[str, list[dict]]:
    """Figure 8: DUMSES (a) and AFiD (b) — cpu_policy_th 3 % and 5 %.

    Shows the two thresholds as the user's efficiency-vs-savings dial.
    """
    workloads = {"DUMSES": dumses(), "AFiD": afid()}
    thresholds = (0.03, 0.05)

    def configs_for(th: float) -> dict[str, EarConfig]:
        return {
            f"me_{int(th * 100)}": EarConfig(use_explicit_ufs=False, cpu_policy_th=th),
            f"me_eufs_{int(th * 100)}": EarConfig(cpu_policy_th=th, unc_policy_th=0.02),
        }

    series = iter(
        _series(
            [(wl, configs_for(th)) for wl in workloads.values() for th in thresholds],
            seeds=seeds,
            scale=scale,
        )
    )
    return {
        key: [row for _ in thresholds for row in next(series)] for key in workloads
    }
