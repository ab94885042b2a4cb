"""GPU-node end-to-end: the CUDA kernel path through the whole stack."""

import pytest

from repro.ear.config import EarConfig
from repro.sim.engine import RunSpec, run_workload
from repro.workloads.kernels import bt_cuda_d, lu_cuda_d

SCALE = 0.5


class TestGpuNodeRuns:
    def test_gpu_power_dominates_the_node(self):
        r = run_workload(bt_cuda_d().scaled_iterations(SCALE), seed=1)
        # two V100s (one busy, one idle) plus a mostly-idle host
        assert 250 < r.avg_dc_power_w < 340

    def test_host_counters_show_busy_wait(self):
        r = run_workload(bt_cuda_d().scaled_iterations(SCALE), seed=1)
        assert r.gbs < 0.5  # no host memory traffic
        assert 0.3 < r.cpi < 0.8  # the spin loop retires instructions

    def test_time_insensitive_to_host_clock(self):
        wl = bt_cuda_d().scaled_iterations(SCALE)
        base = run_workload(wl, seed=1, noise_sigma=0.0)
        slow = run_workload(wl, seed=1, noise_sigma=0.0, pin_cpu_ghz=1.0)
        assert slow.time_s / base.time_s < 1.05

    def test_eufs_collapses_uncore_without_penalty(self):
        wl = bt_cuda_d().scaled_iterations(SCALE)
        base = run_workload(wl, seed=1)
        eu = run_workload(wl, ear_config=EarConfig(), seed=1)
        assert eu.avg_imc_freq_ghz < 1.7
        assert eu.time_s / base.time_s < 1.01
        assert eu.dc_energy_j < base.dc_energy_j

    def test_polling_kernel_keeps_hw_uncore_up(self):
        """LU's memory-polling busy wait vs BT's pause loop: only the
        explicit policy can tell them apart (Table IV's contrast)."""
        lu_me = run_workload(
            lu_cuda_d().scaled_iterations(SCALE),
            ear_config=EarConfig(use_explicit_ufs=False),
            seed=1,
        )
        bt_me = run_workload(
            bt_cuda_d().scaled_iterations(SCALE),
            ear_config=EarConfig(use_explicit_ufs=False),
            seed=1,
        )
        assert lu_me.avg_imc_freq_ghz > 2.3
        assert bt_me.avg_imc_freq_ghz < 2.0

    def test_second_gpu_stays_idle(self):
        """The driver parks the unused V100; node power reflects one
        busy + one idle board."""
        from repro.sim.engine import RunSpec, SimulationEngine

        wl = bt_cuda_d().scaled_iterations(0.2)
        engine = SimulationEngine(RunSpec(wl, seed=1, noise_sigma=0.0))
        engine.run()
        node = engine.cluster.nodes[0]
        profile = wl.calibrated().main_phase
        op = profile.operating_point(node, effective_core_ghz=2.6)
        p = node.power(op)
        idle_w = node.config.gpus[1].idle_power_w
        busy_w = node.config.gpus[0].power_w(
            busy=True, utilisation=profile.gpu_utilisation
        )
        assert p.gpus_w == pytest.approx(busy_w + idle_w)
