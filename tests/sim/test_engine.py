"""Simulation engine: determinism, barriers, pinning, EARL wiring."""

import pytest

from repro.ear.config import EarConfig
from repro.errors import ExperimentError
from repro.sim.engine import RunSpec, SimulationEngine, run_workload
from tests.conftest import make_fast_workload


class TestDeterminism:
    def test_same_seed_same_result(self, fast_workload):
        a = run_workload(fast_workload, seed=7)
        b = run_workload(fast_workload, seed=7)
        assert a.time_s == b.time_s
        assert a.dc_energy_j == b.dc_energy_j

    def test_different_seed_different_noise(self, fast_workload):
        a = run_workload(fast_workload, seed=1)
        b = run_workload(fast_workload, seed=2)
        assert a.time_s != b.time_s
        # ... but only by noise, not structurally
        assert a.time_s == pytest.approx(b.time_s, rel=0.01)

    def test_zero_noise_is_exact(self, fast_workload):
        r = run_workload(fast_workload, noise_sigma=0.0)
        assert r.time_s == pytest.approx(fast_workload.total_ref_time_s, rel=1e-9)


class TestBaselineRun:
    def test_no_policy_run_has_no_earl_traces(self, fast_workload):
        r = run_workload(fast_workload)
        assert r.policy == "none"
        assert r.signatures == ()
        assert r.decisions == ()

    def test_baseline_unpinned_uncore_at_max(self, fast_workload):
        r = run_workload(fast_workload, noise_sigma=0.0)
        assert r.avg_imc_freq_ghz == pytest.approx(2.4)

    def test_energy_equals_power_times_time(self, fast_workload):
        r = run_workload(fast_workload, noise_sigma=0.0)
        assert r.dc_energy_j == pytest.approx(
            r.avg_dc_power_w * r.time_s * r.n_nodes, rel=1e-6
        )

    def test_pck_subset_of_dc(self, fast_workload):
        r = run_workload(fast_workload, noise_sigma=0.0)
        assert 0 < r.pck_energy_j < r.dc_energy_j


class TestPolicyRun:
    def test_earl_traces_present(self, fast_workload):
        r = run_workload(fast_workload, ear_config=EarConfig())
        assert r.policy == "min_energy"
        assert len(r.signatures) >= 3
        assert len(r.decisions) >= 3

    def test_eufs_reduces_energy_on_cpu_bound(self, fast_workload):
        base = run_workload(fast_workload, seed=1)
        eufs = run_workload(fast_workload, ear_config=EarConfig(), seed=1)
        assert eufs.dc_energy_j < base.dc_energy_j
        assert eufs.avg_imc_freq_ghz < base.avg_imc_freq_ghz

    def test_per_node_earl_instances(self):
        wl = make_fast_workload(n_nodes=3)
        engine = SimulationEngine(RunSpec(wl, ear_config=EarConfig()))
        assert len(engine.earls) == 3
        engine.run()
        # every node's MSRs were driven
        for node in engine.cluster:
            assert node.sockets[0].pinned


class TestBarrier:
    def test_multi_node_time_is_max_over_nodes(self):
        wl = make_fast_workload(n_nodes=4)
        multi = run_workload(wl, seed=3)
        single = run_workload(make_fast_workload(n_nodes=1), seed=3)
        # the barrier makes multi-node strictly slower than the mean node
        assert multi.time_s >= single.time_s * 0.99

    def test_all_nodes_account_wall_time(self):
        wl = make_fast_workload(n_nodes=3)
        engine = SimulationEngine(RunSpec(wl, seed=5))
        r = engine.run()
        for bank in engine.banks.values():
            assert bank.snapshot().seconds == pytest.approx(r.time_s, rel=1e-9)


class TestPinning:
    def test_pin_cpu(self, fast_workload):
        r = run_workload(fast_workload, pin_cpu_ghz=1.8, noise_sigma=0.0)
        assert r.avg_cpu_freq_ghz == pytest.approx(1.8, rel=0.02)

    def test_pin_uncore(self, fast_workload):
        r = run_workload(fast_workload, pin_uncore_ghz=1.5, noise_sigma=0.0)
        assert r.avg_imc_freq_ghz == pytest.approx(1.5)

    def test_pinning_slows_and_saves(self, fast_workload):
        base = run_workload(fast_workload, noise_sigma=0.0)
        pinned = run_workload(fast_workload, pin_uncore_ghz=1.2, noise_sigma=0.0)
        assert pinned.time_s > base.time_s
        assert pinned.avg_dc_power_w < base.avg_dc_power_w

    def test_pins_exclusive_with_policy(self, fast_workload):
        with pytest.raises(ExperimentError):
            SimulationEngine(
                RunSpec(fast_workload, ear_config=EarConfig(), pin_cpu_ghz=2.0)
            )

    @pytest.mark.parametrize("pin", ["pin_cpu_ghz", "pin_uncore_ghz"])
    def test_zero_pin_still_exclusive_with_policy(self, fast_workload, pin):
        """A 0.0 pin is *set* (and invalid), not unset: the guard must
        not be fooled by falsy-but-not-None values."""
        with pytest.raises(ExperimentError, match="cannot pin"):
            SimulationEngine(
                RunSpec(fast_workload, ear_config=EarConfig(), **{pin: 0.0})
            )


class TestTrace:
    def test_frequency_trace_recording(self):
        wl = make_fast_workload(n_nodes=2)
        r = run_workload(wl, ear_config=EarConfig(), telemetry=True)
        samples = [
            e for e in r.events if e.subsystem == "engine" and e.kind == "freq_sample"
        ]
        # one sample per node per iteration
        for node in range(2):
            mine = [e for e in samples if e.node == node]
            assert len(mine) == 150
            assert mine[-1].time_s == pytest.approx(r.time_s)
        # the descent must be visible in the trace
        imcs = [e.payload_dict["imc_freq_ghz"] for e in samples if e.node == 0]
        assert min(imcs) < max(imcs)

    def test_trace_off_by_default(self, fast_workload):
        assert run_workload(fast_workload).events == ()

    def test_negative_noise_rejected(self, fast_workload):
        with pytest.raises(ExperimentError):
            SimulationEngine(RunSpec(fast_workload, noise_sigma=-0.1))
