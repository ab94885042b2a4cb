"""Extension bench: explicit UFS under a RAPL package power cap.

Not in the paper's evaluation, but a direct consequence of its
mechanism worth quantifying: when the package is power-limited, uncore
watts and core watts come from the same budget.  A policy that trims
uncore power a CPU-bound code doesn't need hands that budget to the
cores — so under a cap, explicit UFS improves *performance*, not just
energy.

The cluster-scale generalisation of this what-if — jobs bidding for a
shared power budget, the uncore ladder as the first compliance tool —
is the power market (``repro.cluster.market``, bench
``test_region_market.py``, derivation in docs/POLICIES.md).
"""

import pytest

from repro.ear.config import EarConfig
from repro.experiments.report import format_table, ghz, pct
from repro.sim.engine import RunSpec, SimulationEngine
from repro.workloads.kernels import bt_mz_c_openmp

from .conftest import write_artefact

CAP_W = 105.0


def _run(wl, ear_config, seed, cap_w):
    engine = SimulationEngine(RunSpec(wl, ear_config=ear_config, seed=seed))
    for node in engine.cluster:
        node.set_pkg_power_limit(cap_w, privileged=True)
    return engine.run()


def test_powercap_eufs_interaction(benchmark, results_dir, scale, seeds):
    def run():
        wl = bt_mz_c_openmp()
        if scale != 1.0:
            wl = wl.scaled_iterations(scale)
        out = {}
        for name, cfg in (
            ("capped, ME", EarConfig(use_explicit_ufs=False)),
            ("capped, ME+eU", EarConfig()),
        ):
            runs = [_run(wl, cfg, s, CAP_W) for s in seeds]
            n = len(runs)
            out[name] = (
                sum(r.time_s for r in runs) / n,
                sum(r.avg_dc_power_w for r in runs) / n,
                sum(r.avg_cpu_freq_ghz for r in runs) / n,
                sum(r.avg_imc_freq_ghz for r in runs) / n,
            )
        return out

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        f"Extension: BT-MZ.C under a {CAP_W:.0f} W/socket RAPL cap",
        ["config", "time (s)", "DC power (W)", "cpu GHz", "imc GHz"],
        [
            [name, f"{t:.1f}", f"{p:.1f}", ghz(cpu), ghz(imc)]
            for name, (t, p, cpu, imc) in res.items()
        ],
    )
    write_artefact(results_dir, "powercap_eufs.txt", rendered)

    t_me, _, cpu_me, _ = res["capped, ME"]
    t_eu, _, cpu_eu, imc_eu = res["capped, ME+eU"]
    # the descent freed package budget: the cores clock higher and the
    # kernel finishes sooner despite the identical cap
    assert cpu_eu > cpu_me + 0.03
    assert t_eu < t_me
    assert imc_eu < 2.2
