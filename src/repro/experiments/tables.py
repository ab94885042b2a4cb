"""Builders for every table in the paper's evaluation section.

Each builder returns plain data structures (lists of row dicts) so the
benchmark harness, the report renderer and the tests all consume the
same artefacts.  Each submits every run of its table as one batch (one
``averages`` or ``compare_many`` call on the default pool) and builds
its rows from that batch.  ``scale`` shrinks iteration counts for fast
runs; the benches run at 1.0.
"""

from __future__ import annotations

from ..ear.config import EarConfig
from ..workloads.applications import mpi_applications
from ..workloads.kernels import bt_mz_c_mpi, lu_d_mpi, single_node_kernels
from .parallel import RunRequest, default_pool
from .runner import DEFAULT_SEEDS, standard_configs

__all__ = [
    "table1_kernel_metrics",
    "table2_kernel_characteristics",
    "table3_kernel_savings",
    "table4_kernel_frequencies",
    "table5_application_characteristics",
    "table6_application_frequencies",
    "table7_dc_vs_pck",
    "app_thresholds",
]


def app_thresholds(name: str) -> float:
    """Per-application cpu_policy_th used in the paper's section VI-B.

    "All the applications have been executed with a cpu_policy_th of 5 %
    except BQCD, where a cpu_policy_th of 3 % was used."
    """
    return 0.03 if name == "BQCD" else 0.05


def _characteristics(label: str, workloads, *, seeds, scale) -> list[dict]:
    """Rows at nominal frequency (no policy): Tables II and V."""
    averaged = default_pool().averages(
        [(RunRequest(wl, None, scale=scale), "none") for wl in workloads],
        seeds=seeds,
    )
    rows = []
    for wl, base in zip(workloads, averaged):
        run = base.runs[0]
        rows.append(
            {
                label: wl.name,
                "time_s": base.time_s,
                "cpi": run.cpi,
                "gbs": run.gbs,
                "dc_power_w": base.avg_dc_power_w,
            }
        )
    return rows


def _frequencies(label: str, workloads, configs, *, seeds, scale) -> list[dict]:
    """Average CPU/IMC clocks per configuration: Tables IV and VI.

    ``configs[i]`` are the named configurations of ``workloads[i]``.
    """
    averaged = iter(
        default_pool().averages(
            [
                (RunRequest(wl, cfg, scale=scale), name)
                for wl, named in zip(workloads, configs)
                for name, cfg in named.items()
            ],
            seeds=seeds,
        )
    )
    rows = []
    for wl, named in zip(workloads, configs):
        row = {label: wl.name}
        for name in named:
            avg = next(averaged)
            row[name] = {"cpu": avg.avg_cpu_freq_ghz, "imc": avg.avg_imc_freq_ghz}
        rows.append(row)
    return rows


def table1_kernel_metrics(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Table I: BT-MZ.C / LU.D under min_energy with hardware UFS."""
    kernels = (bt_mz_c_mpi(), lu_d_mpi())
    averaged = default_pool().averages(
        [
            (RunRequest(wl, EarConfig(use_explicit_ufs=False), scale=scale), "me")
            for wl in kernels
        ],
        seeds=seeds,
    )
    rows = []
    for wl, me in zip(kernels, averaged):
        run = me.runs[0]
        rows.append(
            {
                "kernel": wl.name,
                "cpi": run.cpi,
                "gbs": run.gbs,
                "cpu_ghz": me.avg_cpu_freq_ghz,
                "imc_ghz": me.avg_imc_freq_ghz,
            }
        )
    return rows


def table2_kernel_characteristics(
    *, seeds=DEFAULT_SEEDS, scale: float = 1.0
) -> list[dict]:
    """Table II: kernels at nominal frequency — time, CPI, GB/s, power."""
    return _characteristics(
        "kernel", list(single_node_kernels()), seeds=seeds, scale=scale
    )


def table3_kernel_savings(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Table III: kernel time penalty / power saving / energy saving."""
    kernels = list(single_node_kernels())
    comparisons = default_pool().compare_many(
        [(RunRequest(wl, None, scale=scale), standard_configs()) for wl in kernels],
        seeds=seeds,
    )
    rows = []
    for wl, cmp_ in zip(kernels, comparisons):
        row = {"kernel": wl.name}
        for cfg in ("me", "me_eufs"):
            c = cmp_[cfg]
            row[cfg] = {
                "time_penalty": c.time_penalty,
                "power_saving": c.power_saving,
                "energy_saving": c.energy_saving,
            }
        rows.append(row)
    return rows


def table4_kernel_frequencies(
    *, seeds=DEFAULT_SEEDS, scale: float = 1.0
) -> list[dict]:
    """Table IV: kernel average CPU and IMC frequencies per config."""
    kernels = list(single_node_kernels())
    return _frequencies(
        "kernel",
        kernels,
        [standard_configs() for _ in kernels],
        seeds=seeds,
        scale=scale,
    )


def table5_application_characteristics(
    *, seeds=DEFAULT_SEEDS, scale: float = 1.0
) -> list[dict]:
    """Table V: application characteristics at nominal frequency."""
    return _characteristics(
        "application", list(mpi_applications()), seeds=seeds, scale=scale
    )


def table6_application_frequencies(
    *, seeds=DEFAULT_SEEDS, scale: float = 1.0
) -> list[dict]:
    """Table VI: application average CPU and IMC frequencies per config."""
    apps = list(mpi_applications())
    return _frequencies(
        "application",
        apps,
        [standard_configs(cpu_policy_th=app_thresholds(wl.name)) for wl in apps],
        seeds=seeds,
        scale=scale,
    )


def table7_dc_vs_pck(*, seeds=DEFAULT_SEEDS, scale: float = 1.0) -> list[dict]:
    """Table VII: DC-node vs RAPL-package power savings under ME+eU.

    The paper's point: the package is a non-constant fraction of node
    power, so judging policies on RAPL PCK savings overstates them.
    """
    # the paper's Table VII lists GROMACS(II) only
    apps = [wl for wl in mpi_applications() if wl.name != "GROMACS(I)"]
    comparisons = default_pool().compare_many(
        [
            (
                RunRequest(wl, None, scale=scale),
                standard_configs(cpu_policy_th=app_thresholds(wl.name)),
            )
            for wl in apps
        ],
        seeds=seeds,
    )
    return [
        {
            "application": wl.name,
            "dc_saving": cmp_["me_eufs"].power_saving,
            "pck_saving": cmp_["me_eufs"].pck_power_saving,
        }
        for wl, cmp_ in zip(apps, comparisons)
    ]
