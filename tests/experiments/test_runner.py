"""Experiment runner: averaging, caching, comparisons."""

import pytest

from repro.ear.config import EarConfig
from repro.experiments import parallel
from repro.experiments.figures import figure4_btmz
from repro.experiments.parallel import (
    ExperimentPool,
    RunRequest,
    configure_defaults,
    default_pool,
)
from repro.experiments.runner import (
    AveragedResult,
    clear_run_cache,
    compare,
    run_averaged,
    standard_configs,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_run_cache()
    yield
    clear_run_cache()


class TestAveraging:
    def test_averages_over_seeds(self, fast_workload):
        avg = run_averaged(fast_workload, None, seeds=(1, 2, 3), scale=0.5)
        assert avg.n_runs == 3
        times = [r.time_s for r in avg.runs]
        assert avg.time_s == pytest.approx(sum(times) / 3)
        assert min(times) <= avg.time_s <= max(times)

    def test_three_runs_default(self, fast_workload):
        avg = run_averaged(fast_workload, None, scale=0.3)
        assert avg.n_runs == 3

    def test_from_runs_consistency(self, fast_workload):
        avg = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        rebuilt = AveragedResult.from_runs(avg.workload, "x", avg.runs)
        assert rebuilt.dc_energy_j == pytest.approx(avg.dc_energy_j)


class TestCaching:
    def test_identical_request_cached(self, fast_workload):
        a = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        simulations = default_pool().stats.simulations
        b = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        assert default_pool().stats.simulations == simulations
        assert a.time_s == b.time_s
        assert a.dc_energy_j == b.dc_energy_j

    def test_different_config_not_cached(self, fast_workload):
        a = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        b = run_averaged(fast_workload, EarConfig(), seeds=(1,), scale=0.3)
        assert a is not b

    def test_clear(self, fast_workload):
        a = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        clear_run_cache()
        b = run_averaged(fast_workload, None, seeds=(1,), scale=0.3)
        assert a is not b
        assert a.time_s == b.time_s  # same seeds -> same numbers


class TestCachingRegressions:
    def test_config_name_not_stale_across_requesters(self, fast_workload):
        """Same (workload, config, seeds, scale) under two names must not
        return the first requester's name from the cache."""
        a = run_averaged(
            fast_workload, None, config_name="baseline", seeds=(1,), scale=0.3
        )
        b = run_averaged(
            fast_workload, None, config_name="reference", seeds=(1,), scale=0.3
        )
        assert a.config_name == "baseline"
        assert b.config_name == "reference"
        assert a.time_s == b.time_s  # still the same physical runs

    def test_generator_seeds_are_not_consumed(self, fast_workload):
        """A generator passed as ``seeds`` used to be eaten by the cache
        key and the run loop then saw it empty."""
        avg = run_averaged(fast_workload, None, seeds=iter((1, 2)), scale=0.3)
        assert avg.n_runs == 2
        explicit = run_averaged(fast_workload, None, seeds=(1, 2), scale=0.3)
        assert avg.time_s == explicit.time_s


class TestEachRunExecutesOnce:
    """Builders submit one batch and assemble from it, so no run is
    simulated twice — even without a cache to carry results over."""

    @pytest.fixture()
    def _restore_default_pool(self):
        saved = default_pool()
        yield
        parallel._default_pool = saved

    def test_uncached_compare_simulates_each_run_once(self, fast_workload):
        pool = ExperimentPool(jobs=1, cache=None)
        pool.compare_many(
            [(RunRequest(fast_workload, None, scale=0.3), standard_configs())],
            seeds=(1, 2),
        )
        assert pool.stats.simulations == 3 * 2  # (none, me, me_eufs) x seeds

    @pytest.mark.usefixtures("_restore_default_pool")
    def test_uncached_parallel_builder_simulates_each_run_once(self):
        pool = configure_defaults(jobs=2, use_cache=False)
        rows = figure4_btmz(seeds=(1, 2), scale=0.02)
        # none + the four figure configurations, two seeds each
        assert pool.stats.simulations == (1 + len(rows)) * 2
        assert pool.stats.batches == 1


class TestComparison:
    def test_metrics_signs(self, fast_workload):
        cmp_ = compare(fast_workload, standard_configs(), seeds=(1,), scale=0.5)
        eu = cmp_["me_eufs"]
        assert eu.energy_saving > 0
        assert eu.time_penalty >= 0
        assert eu.power_saving > 0

    def test_reference_injected_when_missing(self, fast_workload):
        cmp_ = compare(
            fast_workload, {"me": EarConfig(use_explicit_ufs=False)}, seeds=(1,), scale=0.3
        )
        assert "me" in cmp_
        assert cmp_["me"].reference.config_name == "none"

    def test_efficiency_ratio(self, fast_workload):
        cmp_ = compare(fast_workload, standard_configs(), seeds=(1,), scale=0.5)
        eu = cmp_["me_eufs"]
        if eu.time_penalty > 0:
            assert eu.efficiency_ratio == pytest.approx(
                eu.energy_saving / eu.time_penalty
            )

    def test_standard_configs_shape(self):
        cfgs = standard_configs(cpu_policy_th=0.03)
        assert cfgs["none"] is None
        assert cfgs["me"].use_explicit_ufs is False
        assert cfgs["me"].cpu_policy_th == 0.03
        assert cfgs["me_eufs"].use_explicit_ufs is True

    def test_regions_config_is_opt_in(self):
        # default off: the paper tables keep their exact config set.
        assert "me_eufs_regions" not in standard_configs()
        cfgs = standard_configs(regions=True, unc_policy_th=0.04)
        regions = cfgs["me_eufs_regions"]
        assert regions.policy == "min_energy_regions"
        assert regions.unc_policy_th == 0.04
        # rides the same thresholds as the global eUFS config.
        assert regions.cpu_policy_th == cfgs["me_eufs"].cpu_policy_th
