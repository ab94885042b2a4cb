"""Energy model training and projection accuracy."""

import dataclasses

import pytest

from repro.ear.config import EarConfig
from repro.ear.models import (
    DefaultModel,
    clear_cache,
    coefficients,
    make_model,
    steady_state_signature,
    train_coefficients,
)
from repro.errors import ModelError
from repro.hw.node import GPU_NODE, SD530
from repro.workloads.generator import synthetic_profile, training_corpus


class TestTraining:
    def test_covers_all_pairs(self, sd530_coefficients):
        n = len(SD530.pstates)
        assert len(sd530_coefficients) == n * (n - 1)

    def test_cached_per_node_type(self, sd530_coefficients):
        assert train_coefficients(SD530) is sd530_coefficients

    def test_gpu_node_trains_separately(self, gpu_coefficients, sd530_coefficients):
        assert gpu_coefficients is not sd530_coefficients

    def test_missing_pair_raises(self, sd530_coefficients):
        with pytest.raises(ModelError):
            sd530_coefficients.get(0, 99)

    def test_identity_projection(self, sd530_coefficients):
        sig = steady_state_signature(
            training_corpus(SD530)[3], SD530, f_cpu_ghz=2.4
        )
        t, p = sd530_coefficients.project(sig, 1, 1)
        assert t == sig.iteration_time_s
        assert p == sig.dc_power_w


class TestProjectionAccuracy:
    """The trained model must predict the simulated hardware well on
    the corpus family — that is what EAR's learning phase achieves."""

    @pytest.mark.parametrize("stall", [0.04, 0.28, 0.58, 0.88])
    @pytest.mark.parametrize("to_freq", [2.1, 1.8, 1.4])
    def test_time_prediction_on_family(self, sd530_coefficients, stall, to_freq):
        profile = synthetic_profile(
            name="probe",
            node_config=SD530,
            core_share=1.0 - stall,
            unc_share=0.25 * stall,
            mem_share=0.75 * stall,
            activity=1.0 - 0.55 * stall,
        )
        sig = steady_state_signature(profile, SD530, f_cpu_ghz=2.4)
        truth = steady_state_signature(profile, SD530, f_cpu_ghz=to_freq)
        model = DefaultModel(sd530_coefficients, SD530.pstates)
        pred = model.project(sig, 1, SD530.pstates.pstate_of(to_freq))
        assert pred.time_s == pytest.approx(truth.iteration_time_s, rel=0.04)

    @pytest.mark.parametrize("stall", [0.04, 0.48, 0.88])
    def test_power_prediction_on_family(self, sd530_coefficients, stall):
        profile = synthetic_profile(
            name="probe",
            node_config=SD530,
            core_share=1.0 - stall,
            unc_share=0.25 * stall,
            mem_share=0.75 * stall,
            activity=1.0 - 0.55 * stall,
        )
        sig = steady_state_signature(profile, SD530, f_cpu_ghz=2.4)
        truth = steady_state_signature(profile, SD530, f_cpu_ghz=1.8)
        model = DefaultModel(sd530_coefficients, SD530.pstates)
        pred = model.project(sig, 1, SD530.pstates.pstate_of(1.8))
        assert pred.power_w == pytest.approx(truth.dc_power_w, rel=0.05)

    def test_cpu_bound_projects_near_inverse_frequency(self, sd530_coefficients):
        profile = synthetic_profile(
            name="cpu",
            node_config=SD530,
            core_share=0.98,
            unc_share=0.01,
            mem_share=0.01,
            activity=1.0,
        )
        sig = steady_state_signature(profile, SD530, f_cpu_ghz=2.4)
        model = DefaultModel(sd530_coefficients, SD530.pstates)
        pred = model.project(sig, 1, SD530.pstates.pstate_of(1.2))
        assert pred.time_s / sig.iteration_time_s == pytest.approx(2.0, rel=0.06)

    def test_memory_bound_projects_nearly_flat(self, sd530_coefficients):
        profile = synthetic_profile(
            name="mem",
            node_config=SD530,
            core_share=0.1,
            unc_share=0.22,
            mem_share=0.68,
            activity=0.5,
        )
        sig = steady_state_signature(profile, SD530, f_cpu_ghz=2.4)
        model = DefaultModel(sd530_coefficients, SD530.pstates)
        pred = model.project(sig, 1, SD530.pstates.pstate_of(1.8))
        assert pred.time_s / sig.iteration_time_s < 1.08


class TestModelSelection:
    def test_make_model_avx(self):
        model = make_model(SD530, EarConfig(use_avx512_model=True))
        assert model.name == "avx512"

    def test_make_model_default(self):
        model = make_model(SD530, EarConfig(use_avx512_model=False))
        assert model.name == "default"

    def test_clear_cache_retrains(self, sd530_coefficients):
        clear_cache()
        try:
            fresh = train_coefficients(SD530)
            assert fresh is not sd530_coefficients
            assert len(fresh) == len(sd530_coefficients)
        finally:
            # repopulate the shared cache for the rest of the session
            clear_cache()
            train_coefficients(SD530)
            train_coefficients(GPU_NODE)

    def test_same_name_different_physics_trains_its_own_table(self, monkeypatch):
        """The cache is keyed on the whole node config: a same-name
        variant trained first must not answer for the stock SD530."""
        monkeypatch.setattr(coefficients, "_CACHE", {})
        variant = dataclasses.replace(
            SD530, power=dataclasses.replace(SD530.power, uncore_dyn_w=10.0)
        )
        assert variant.name == SD530.name
        trained_variant = train_coefficients(variant)
        stock = train_coefficients(SD530)
        clear_cache()
        fresh = train_coefficients(SD530)
        assert stock.items() == fresh.items()
        assert trained_variant.items() != fresh.items()
