"""Micro-architecture portability: the stack on a Broadwell node type.

The related work the paper compares with ([18] Gholkar et al., [19]
André et al.) runs on Broadwell (Xeon E5-2620 v4): a different P-state
range (2.1 GHz nominal), a wider uncore range (2.7 GHz max), a smaller
ring-bus uncore, and no AVX-512.  Everything — learning phase, models,
policies, explicit UFS — must work there unchanged.
"""

import pytest

from repro.ear.config import EarConfig
from repro.ear.models import train_coefficients
from repro.hw.node import BROADWELL_NODE, Node
from repro.sim.engine import RunSpec, run_workload
from repro.workloads.generator import synthetic_workload


def broadwell_workload(core_share, unc_share, mem_share, n_iterations=200):
    return synthetic_workload(
        name="bdw",
        node_config=BROADWELL_NODE,
        core_share=core_share,
        unc_share=unc_share,
        mem_share=mem_share,
        n_iterations=n_iterations,
    )


class TestNodeType:
    def test_pstate_range(self):
        ps = BROADWELL_NODE.pstates
        assert ps.nominal_ghz == pytest.approx(2.1)
        assert ps.min_ghz == pytest.approx(1.2)
        # no AVX-512: the licence clamp is a no-op
        assert ps.avx512_clamp(1) == 1

    def test_uncore_range(self):
        node = Node(BROADWELL_NODE)
        limits = node.sockets[0].msr.read_uncore_limits()
        assert limits.max_ghz == pytest.approx(2.7)
        assert limits.min_ghz == pytest.approx(1.2)
        assert node.uncore_freq_ghz == pytest.approx(2.7)

    def test_learning_phase_trains(self):
        table = train_coefficients(BROADWELL_NODE)
        n = len(BROADWELL_NODE.pstates)
        assert len(table) == n * (n - 1)


class TestPoliciesPort:
    def test_eufs_descends_for_cpu_bound(self):
        wl = broadwell_workload(0.9, 0.05, 0.03)
        base = run_workload(wl, seed=1)
        eu = run_workload(wl, ear_config=EarConfig(), seed=1)
        assert base.avg_imc_freq_ghz == pytest.approx(2.7)
        assert eu.avg_imc_freq_ghz < 2.5
        assert eu.dc_energy_j < base.dc_energy_j
        assert eu.time_s / base.time_s < 1.04

    def test_dvfs_dives_for_memory_bound(self):
        wl = broadwell_workload(0.12, 0.2, 0.6)
        eu = run_workload(wl, ear_config=EarConfig(), seed=1)
        assert eu.avg_cpu_freq_ghz < 2.0
        # frequencies stay inside this part's ranges
        assert eu.avg_cpu_freq_ghz >= 1.2 - 1e-9
        assert 1.2 - 1e-9 <= eu.avg_imc_freq_ghz <= 2.7 + 1e-9

    def test_powercap_ports(self):
        from repro.sim.engine import RunSpec, SimulationEngine

        wl = broadwell_workload(0.9, 0.05, 0.03, n_iterations=50)
        engine = SimulationEngine(RunSpec(wl, seed=1, noise_sigma=0.0))
        for node in engine.cluster:
            node.set_pkg_power_limit(45.0, privileged=True)
        r = engine.run()
        assert r.avg_pck_power_w / 2 <= 46.0
