"""Clean-path regression: the fault layer must cost *nothing* when off.

The numbers below were captured from the tree immediately before the
fault-injection layer landed.  Every comparison is exact (``==``, not
approx): with no fault plan — or an all-zero one — the refactor must be
bit-identical, not merely statistically equivalent.  Any drift here
means the clean path now takes extra RNG draws or changed arithmetic.
"""

from repro.ear.config import EarConfig
from repro.ear.models import steady_state_signature
from repro.ear.models.coefficients import PairCoefficients, train_coefficients
from repro.ear.signature import Signature
from repro.hw.node import SD530
from repro.sim import run_workload
from repro.sim.engine import RunSpec, SimulationEngine
from repro.sim.faults import FaultPlan
from repro.workloads.generator import synthetic_workload
from repro.workloads.kernels import dgemm_mkl


def golden_a():
    return synthetic_workload(
        name="golden-a",
        node_config=SD530,
        core_share=0.85,
        unc_share=0.06,
        mem_share=0.05,
        n_nodes=2,
        n_iterations=150,
    )


def golden_m():
    return synthetic_workload(
        name="golden-m",
        node_config=SD530,
        core_share=0.12,
        unc_share=0.2,
        mem_share=0.6,
        n_nodes=1,
        n_iterations=150,
    )


class TestGoldenNumbers:
    def test_no_policy_run_unchanged(self):
        r = run_workload(golden_a(), seed=7)
        assert r.time_s == 75.08021888026748
        assert r.dc_energy_j == 48020.82796409208
        assert r.avg_cpu_freq_ghz == 2.380799999999999
        assert r.avg_imc_freq_ghz == 2.4

    def test_me_eufs_run_unchanged(self):
        r = run_workload(golden_a(), ear_config=EarConfig(), seed=7)
        assert r.time_s == 75.92402289522796
        assert r.dc_energy_j == 46774.318850211464
        assert r.avg_cpu_freq_ghz == 2.3808
        assert r.avg_imc_freq_ghz == 2.1138663890418825
        assert len(r.signatures) == 7
        assert len(r.decisions) == 7

    def test_me_without_eufs_run_unchanged(self):
        r = run_workload(
            golden_a(), ear_config=EarConfig(use_explicit_ufs=False), seed=7
        )
        assert r.time_s == 75.08021888026748
        assert r.dc_energy_j == 48020.82796409208
        assert len(r.signatures) == 7

    def test_memory_bound_run_unchanged(self):
        r = run_workload(golden_m(), ear_config=EarConfig(), seed=3)
        assert r.time_s == 77.11119046967409
        assert r.dc_energy_j == 27310.988096826568
        assert r.avg_cpu_freq_ghz == 2.1314352516087585
        assert r.avg_imc_freq_ghz == 2.315758922722863
        assert len(r.signatures) == 7


class TestLearningPhaseGolden:
    """The analytic learning phase, pinned bit for bit.

    ``steady_state_signature`` derives its steady state through the same
    iteration plan as both engines, so these exact values also guard
    that shared derivation from the learning side.
    """

    def test_hw_ufs_uncore_signature_unchanged(self):
        profile = golden_m().calibrated().phases[0][0]
        assert steady_state_signature(profile, SD530, f_cpu_ghz=2.4) == Signature(
            iteration_time_s=0.5,
            dc_power_w=382.1383552,
            cpi=2.7000000000000006,
            tpi=0.07207031250000001,
            gbs=164.0,
            vpi=0.0,
            avg_cpu_freq_ghz=2.4,
            avg_imc_freq_ghz=2.4,
        )

    def test_pinned_uncore_signature_unchanged(self):
        profile = golden_m().calibrated().phases[0][0]
        sig = steady_state_signature(profile, SD530, f_cpu_ghz=2.0, f_uncore_ghz=1.5)
        assert sig == Signature(
            iteration_time_s=0.6249411764705883,
            dc_power_w=300.35715873493973,
            cpi=2.812235294117648,
            tpi=0.07207031250000001,
            gbs=131.21234939759034,
            vpi=0.0,
            avg_cpu_freq_ghz=2.0,
            avg_imc_freq_ghz=1.5,
        )

    def test_avx512_signature_unchanged(self):
        wl = dgemm_mkl().calibrated()
        profile = wl.phases[0][0]
        assert profile.vpi == 1.0
        sig = steady_state_signature(profile, wl.node_config, f_cpu_ghz=2.4)
        assert sig == Signature(
            iteration_time_s=0.5224509803921569,
            dc_power_w=343.8334294614374,
            cpi=0.4702058823529413,
            tpi=0.007830255681818183,
            gbs=93.78870332144866,
            vpi=1.0,
            avg_cpu_freq_ghz=2.2,
            avg_imc_freq_ghz=1.8,
        )

    def test_trained_pair_unchanged(self):
        table = train_coefficients(SD530)
        assert table.get(0, 3) == PairCoefficients(
            a=1.0243511468307658,
            b=-5.597332838336847,
            c=-0.012280122979599867,
            d=0.7272490875309783,
            e=236.76754529730945,
            f=48.03271788219012,
        )


class TestDisabledPlanIdentity:
    def test_zero_plan_bit_identical_to_no_plan(self):
        base = run_workload(golden_a(), ear_config=EarConfig(), seed=7)
        zero = run_workload(
            golden_a(), ear_config=EarConfig(), seed=7, fault_plan=FaultPlan()
        )
        assert zero == base  # full structural equality, signatures included

    def test_clean_run_health_is_clean(self):
        r = run_workload(golden_a(), ear_config=EarConfig(), seed=7)
        assert r.health.clean
        assert r.health.faults_injected == 0
        assert r.health.degraded_s == 0.0
        for n in r.nodes:
            assert n.health is not None and n.health.clean

    def test_disabled_plan_builds_no_injectors(self):
        for plan in (None, FaultPlan()):
            engine = SimulationEngine(
                RunSpec(golden_a(), ear_config=EarConfig(), seed=7, fault_plan=plan)
            )
            assert engine.injectors == {}
            for eard in (e.eard for e in engine.earls.values()):
                assert eard.injector is None
