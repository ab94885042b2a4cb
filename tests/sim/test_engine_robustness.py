"""Engine robustness: heterogeneity, heavy noise, sensor failure,
result export."""

import json

import pytest

from repro.ear.config import EarConfig
from repro.errors import ExperimentError
from repro.sim.engine import SimulationEngine, run_workload
from tests.conftest import make_fast_workload


class TestNodeHeterogeneity:
    def test_straggler_sets_the_pace(self):
        """Static per-node slowdown: the job runs at the slowest node's
        speed, not the average — the bulk-synchronous worst case."""
        wl = make_fast_workload(n_nodes=4)
        uniform = run_workload(wl, seed=1, noise_sigma=0.0)
        hetero = run_workload(
            wl, seed=1, noise_sigma=0.0, node_speed_spread=0.1
        )
        assert hetero.time_s > uniform.time_s * 1.02

    def test_slowdown_is_static_per_node(self):
        wl = make_fast_workload(n_nodes=4, n_iterations=60)
        engine = SimulationEngine(wl, seed=3, noise_sigma=0.0, node_speed_spread=0.1)
        engine.run()
        # the same node is the straggler throughout: its bank's compute
        # share of wall time is ~1.0 while others waited
        waits = []
        for node in engine.cluster:
            snap = engine.banks[node.node_id].snapshot()
            waits.append(snap.seconds)
        # every node accounts identical wall seconds (barrier semantics)
        assert max(waits) == pytest.approx(min(waits), rel=1e-9)

    def test_deterministic_given_seed(self):
        wl = make_fast_workload(n_nodes=3)
        a = run_workload(wl, seed=9, node_speed_spread=0.08)
        b = run_workload(wl, seed=9, node_speed_spread=0.08)
        assert a.time_s == b.time_s

    def test_policies_survive_heterogeneity(self):
        wl = make_fast_workload(n_nodes=3, n_iterations=200)
        r = run_workload(
            wl, ear_config=EarConfig(), seed=1, node_speed_spread=0.08
        )
        assert r.avg_imc_freq_ghz < 2.35  # descent still happened
        assert r.time_s > 0

    def test_spread_validated(self):
        with pytest.raises(ExperimentError):
            SimulationEngine(make_fast_workload(), node_speed_spread=0.5)


class TestHeavyNoise:
    def test_policy_remains_stable_under_noise(self):
        """3 % iteration jitter (10x default): the guard may settle a
        little higher, but the run completes and the penalty stays
        within the combined budget plus noise."""
        wl = make_fast_workload(n_iterations=250)
        base = run_workload(wl, seed=1, noise_sigma=0.03)
        managed = run_workload(
            wl, ear_config=EarConfig(), seed=1, noise_sigma=0.03
        )
        penalty = managed.time_s / base.time_s - 1.0
        assert penalty < 0.12

    def test_zero_iterations_of_drift_without_noise(self):
        wl = make_fast_workload(n_iterations=50)
        r1 = run_workload(wl, seed=1, noise_sigma=0.0)
        r2 = run_workload(wl, seed=99, noise_sigma=0.0)
        assert r1.time_s == pytest.approx(r2.time_s, rel=1e-12)


class TestSensorFailure:
    def test_stuck_energy_counter_never_crashes_earl(self):
        """If the Node Manager counter never publishes (update period
        beyond the run length), EARL gets no usable energy delta and
        must simply keep running without signatures."""
        wl = make_fast_workload(n_iterations=80)
        engine = SimulationEngine(wl, ear_config=EarConfig(), seed=1)
        for node in engine.cluster:
            node.dc_meter.update_period_s = 1e9  # effectively stuck
        result = engine.run()
        assert result.signatures == ()
        assert result.time_s > 0
        # frequencies stayed at the pinned defaults
        assert result.avg_imc_freq_ghz == pytest.approx(2.4)


class TestExport:
    def test_to_json_roundtrips(self):
        wl = make_fast_workload(n_iterations=60)
        r = run_workload(wl, ear_config=EarConfig(), seed=1)
        payload = json.loads(r.to_json())
        assert payload["workload"] == r.workload
        assert payload["dc_energy_j"] == pytest.approx(r.dc_energy_j)
        assert len(payload["nodes"]) == r.n_nodes
        assert len(payload["signatures"]) == len(r.signatures)
        first_decision = payload["decisions"][0]
        assert first_decision["earl_state"] == "NODE_POLICY"
        assert first_decision["freqs"]["cpu_ghz"] > 0

    def test_export_without_traces(self):
        wl = make_fast_workload(n_iterations=30)
        r = run_workload(wl, seed=1)
        payload = r.to_dict()
        assert payload["decisions"] == []
        assert payload["events"] == []
