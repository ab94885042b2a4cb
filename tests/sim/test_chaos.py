"""Chaos suite: no fault schedule may crash a run or strand the node.

Every test here runs a full simulation under an aggressive fault plan
and checks the three contract properties of the robustness layer:

1. the run completes with a finite, well-formed result;
2. the run is exactly reproducible (same plan + seed => same bits);
3. whenever the watchdog fired (and no MSR apply was lost), the node
   ends the job on the policy's safe defaults.

Marked ``chaos`` so CI can sweep the suite separately across seeds.
"""

import math
import pickle

import pytest

from repro.ear.config import EarConfig
from repro.sim import run_workload
from repro.sim.engine import RunSpec, SimulationEngine
from repro.sim.faults import FaultPlan
from tests.conftest import make_fast_workload

pytestmark = pytest.mark.chaos

SEEDS = (11, 23, 47)

#: one aggressive plan per fault channel, paired with the NodeHealth
#: counter that proves the channel actually fired.
CHANNELS = {
    "meter_stall": (
        FaultPlan(meter_stall_rate=0.3, meter_stall_reads=6),
        "meter_stalls",
    ),
    "meter_dropout": (FaultPlan(meter_dropout_rate=0.5), "meter_dropouts"),
    "counter_corruption": (
        FaultPlan(counter_corruption_rate=0.5),
        "counter_corruptions",
    ),
    "msr_failure": (
        FaultPlan(msr_failure_rate=0.8, msr_failure_burst=3),
        "msr_failures_injected",
    ),
    "rapl_wrap": (FaultPlan(rapl_wrap_rate=0.3), "rapl_wrap_storms"),
    "throttle": (
        FaultPlan(throttle_rate=0.15, throttle_duration_s=6.0),
        "throttle_events",
    ),
}

#: every channel at once, on a hair-trigger watchdog.
STORM = FaultPlan(
    meter_stall_rate=0.2,
    meter_stall_reads=8,
    meter_dropout_rate=0.2,
    counter_corruption_rate=0.3,
    msr_failure_rate=0.5,
    msr_failure_burst=2,
    rapl_wrap_rate=0.2,
    throttle_rate=0.1,
    throttle_duration_s=6.0,
)


def run_engine(plan, seed, **cfg):
    engine = SimulationEngine(
        RunSpec(
            make_fast_workload(),
            ear_config=EarConfig(**cfg),
            seed=seed,
            fault_plan=plan,
        )
    )
    return engine, engine.run()


def assert_well_formed(result):
    assert result.time_s > 0 and math.isfinite(result.time_s)
    assert result.dc_energy_j > 0 and math.isfinite(result.dc_energy_j)
    assert math.isfinite(result.avg_cpu_freq_ghz)
    assert math.isfinite(result.avg_imc_freq_ghz)
    for sig in result.signatures:
        assert math.isfinite(sig.dc_power_w)
        assert math.isfinite(sig.cpi)


def assert_ladder_consistent(health):
    """Reaction counters must match the injected schedule."""
    # only corrupted reads can be implausible at ingress
    assert health.samples_rejected <= health.counter_corruptions
    # every injected MSR failure is either retried past or ends an apply
    assert health.msr_failures_injected == health.msr_retries + health.msr_apply_failures
    # a watchdog trip consumes watchdog_window_limit consecutive bad windows
    assert health.watchdog_restores <= health.windows_rejected + health.windows_stalled
    assert health.degraded_s >= 0.0


def assert_defaults_restored(engine):
    """Watchdog contract: a degraded node ends the job on defaults."""
    for earl in engine.earls.values():
        health = earl.health.snapshot()
        if not earl.degraded or health.msr_apply_failures > 0:
            continue  # not degraded, or the restoring write itself was lost
        defaults = earl.policy.default_freqs()
        node = earl.eard.node
        assert node.core_target_ghz == pytest.approx(defaults.cpu_ghz)
        limits = node.sockets[0].msr.read_uncore_limits()
        assert limits.max_ghz == pytest.approx(defaults.imc_max_ghz)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
class TestSingleChannel:
    def test_run_survives_and_counts_faults(self, channel, seed):
        plan, counter = CHANNELS[channel]
        engine, result = run_engine(plan, seed)
        assert_well_formed(result)
        health = result.health
        assert getattr(health, counter) > 0, f"{channel} never fired"
        assert health.faults_injected > 0
        assert_ladder_consistent(health)
        assert_defaults_restored(engine)

    def test_run_is_deterministic(self, channel, seed):
        plan, _ = CHANNELS[channel]
        _, first = run_engine(plan, seed)
        _, second = run_engine(plan, seed)
        assert first == second
        assert first.health == second.health


@pytest.mark.parametrize("seed", SEEDS)
class TestStorm:
    def test_all_channels_at_once(self, seed):
        engine, result = run_engine(
            STORM, seed, stalled_poll_limit=5, watchdog_window_limit=2
        )
        assert_well_formed(result)
        health = result.health
        assert health.faults_injected > 0
        assert_ladder_consistent(health)
        assert_defaults_restored(engine)

    def test_storm_is_deterministic_and_picklable(self, seed):
        _, first = run_engine(STORM, seed, stalled_poll_limit=5)
        _, second = run_engine(STORM, seed, stalled_poll_limit=5)
        assert first == second
        # results cross process boundaries in the experiment pool
        assert pickle.loads(pickle.dumps(first)) == first


@pytest.mark.parametrize("seed", SEEDS)
def test_permanent_meter_stall_trips_watchdog(seed):
    """The nastiest meter fault: it never publishes again.  The run
    must finish, the watchdog must fire, and the node must end the job
    at the policy defaults."""
    plan = FaultPlan(meter_stall_rate=1.0, meter_stall_reads=10**6)
    engine, result = run_engine(
        plan, seed, stalled_poll_limit=5, watchdog_window_limit=2
    )
    assert_well_formed(result)
    health = result.health
    assert health.windows_stalled >= 2
    assert health.watchdog_restores == 1
    assert health.degraded_s > 0
    assert_defaults_restored(engine)
    assert all(earl.degraded for earl in engine.earls.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_faults_survive_multi_node_runs(seed):
    """Injectors are per node and decorrelated; a 3-node faulted run
    completes and every node reports its own health."""
    result = run_workload(
        make_fast_workload(n_nodes=3, n_iterations=100),
        ear_config=EarConfig(),
        seed=seed,
        fault_plan=STORM,
    )
    assert_well_formed(result)
    healths = [n.health for n in result.nodes]
    assert all(h is not None for h in healths)
    assert all(h.faults_injected > 0 for h in healths)
    assert len(set(healths)) > 1, "per-node schedules should not be identical"
