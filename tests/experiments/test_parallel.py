"""Parallel execution layer: content-addressed cache + process pool."""

import pytest

from repro.ear.config import EarConfig
from repro.experiments.parallel import (
    CACHE_FORMAT_VERSION,
    ExperimentPool,
    RunCache,
    RunRequest,
)
from repro.sim.engine import run_workload
from tests.conftest import make_fast_workload


@pytest.fixture()
def workload():
    return make_fast_workload(n_iterations=60)


def _request(workload, **kwargs):
    defaults = dict(ear_config=None, seed=1, scale=0.3)
    defaults.update(kwargs)
    return RunRequest(workload=workload, **defaults)


class TestRequestKeys:
    def test_key_is_deterministic(self, workload):
        assert _request(workload).key() == _request(workload).key()

    def test_distinct_per_config(self, workload):
        base = _request(workload).key()
        assert _request(workload, ear_config=EarConfig()).key() != base
        assert (
            _request(workload, ear_config=EarConfig(cpu_policy_th=0.03)).key()
            != _request(workload, ear_config=EarConfig()).key()
        )

    def test_distinct_per_seed(self, workload):
        assert _request(workload, seed=1).key() != _request(workload, seed=2).key()

    def test_distinct_per_scale(self, workload):
        assert (
            _request(workload, scale=0.3).key() != _request(workload, scale=0.5).key()
        )

    def test_distinct_per_pin(self, workload):
        assert (
            _request(workload, pin_cpu_ghz=2.4).key()
            != _request(workload, pin_cpu_ghz=2.3).key()
        )
        assert _request(workload, pin_cpu_ghz=2.4).key() != _request(workload).key()

    def test_distinct_per_workload(self, workload):
        other = make_fast_workload(n_iterations=61)
        assert _request(workload).key() != _request(other).key()

    def test_version_is_part_of_the_key(self, workload, monkeypatch):
        before = _request(workload).key()
        monkeypatch.setattr(
            "repro.experiments.parallel.CACHE_FORMAT_VERSION",
            CACHE_FORMAT_VERSION + 1,
        )
        assert _request(workload).key() != before

    def test_execute_matches_direct_run(self, workload):
        req = _request(workload, ear_config=EarConfig(), seed=3)
        direct = run_workload(
            workload.scaled_iterations(0.3), ear_config=EarConfig(), seed=3
        )
        assert req.execute().time_s == direct.time_s


class TestRunCacheMemory:
    def test_hit_miss_clear(self, workload):
        cache = RunCache()
        req = _request(workload)
        key = req.key()
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        result = req.execute()
        cache.put(key, result)
        assert cache.get(key) is result
        assert cache.stats.hits == 1
        cache.clear()
        assert cache.get(key) is None
        assert cache.stats.misses == 2


class TestRunCacheDisk:
    def test_round_trip_across_instances(self, workload, tmp_path):
        req = _request(workload)
        result = req.execute()
        RunCache(tmp_path).put(req.key(), result)

        fresh = RunCache(tmp_path)
        loaded = fresh.get(req.key())
        assert loaded is not None
        assert fresh.stats.disk_hits == 1
        assert loaded.time_s == result.time_s
        assert loaded.dc_energy_j == result.dc_energy_j
        assert loaded.nodes == result.nodes

    def test_version_bump_invalidates(self, workload, tmp_path):
        req = _request(workload)
        RunCache(tmp_path, version=1).put(req.key(), req.execute())
        newer = RunCache(tmp_path, version=2)
        assert newer.get(req.key()) is None
        # the stale file is dropped, not resurrected later
        assert RunCache(tmp_path, version=1).get(req.key()) is None

    def test_corrupt_entry_is_a_miss(self, workload, tmp_path):
        req = _request(workload)
        cache = RunCache(tmp_path)
        cache.put(req.key(), req.execute())
        for path in tmp_path.glob("*.run"):
            path.write_bytes(b"not a pickle")
        assert RunCache(tmp_path).get(req.key()) is None

    def test_clear_disk(self, workload, tmp_path):
        req = _request(workload)
        cache = RunCache(tmp_path)
        cache.put(req.key(), req.execute())
        cache.clear(disk=True)
        assert RunCache(tmp_path).get(req.key()) is None


class TestExperimentPool:
    def test_results_in_submission_order(self, workload):
        pool = ExperimentPool(cache=RunCache())
        requests = [_request(workload, seed=s) for s in (3, 1, 2)]
        results = pool.run_many(requests)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_duplicates_execute_once(self, workload):
        pool = ExperimentPool(cache=RunCache())
        results = pool.run_many([_request(workload), _request(workload)])
        assert pool.stats.simulations == 1
        assert results[0] is results[1]

    def test_parallel_equals_serial(self, workload):
        requests = [
            _request(workload, ear_config=cfg, seed=s)
            for cfg in (None, EarConfig())
            for s in (1, 2)
        ]
        serial = ExperimentPool(jobs=1, cache=RunCache()).run_many(requests)
        parallel = ExperimentPool(jobs=2, cache=RunCache()).run_many(requests)
        for a, b in zip(serial, parallel):
            assert a.time_s == b.time_s
            assert a.dc_energy_j == b.dc_energy_j
            assert a.pck_energy_j == b.pck_energy_j
            assert a.nodes == b.nodes

    def test_run_averaged_parallel_equals_serial(self, workload):
        cells = [(_request(workload, ear_config=EarConfig()), "me_eufs")]
        serial = ExperimentPool(jobs=1, cache=RunCache()).averages(
            cells, seeds=(1, 2, 3)
        )[0]
        parallel = ExperimentPool(jobs=2, cache=RunCache()).averages(
            cells, seeds=(1, 2, 3)
        )[0]
        assert serial.time_s == parallel.time_s
        assert serial.dc_energy_j == parallel.dc_energy_j
        assert serial.avg_imc_freq_ghz == parallel.avg_imc_freq_ghz

    def test_compare_batches_all_configs(self, workload):
        pool = ExperimentPool(cache=RunCache())
        (cmp_,) = pool.compare_many(
            [
                (
                    _request(workload),
                    {"me": EarConfig(use_explicit_ufs=False), "me_eufs": EarConfig()},
                )
            ],
            seeds=(1,),
        )
        # none + me + me_eufs, one seed each, one batch
        assert pool.stats.simulations == 3
        assert pool.stats.batches == 1
        assert cmp_["me"].reference is cmp_["me_eufs"].reference

    def test_config_name_stamped_on_retrieval(self, workload):
        """The staleness bug: a warm cache must not leak the first
        requester's display name to later requesters."""
        pool = ExperimentPool(cache=RunCache())
        first = pool.averages([(_request(workload), "baseline")], seeds=(1,))[0]
        second = pool.averages([(_request(workload), "reference")], seeds=(1,))[0]
        assert first.config_name == "baseline"
        assert second.config_name == "reference"
        assert pool.stats.simulations == 1  # same physical runs
        assert first.time_s == second.time_s

    def test_warm_disk_cache_runs_nothing(self, workload, tmp_path):
        """Acceptance: a repeated invocation against a warm on-disk cache
        performs zero simulation runs, and the numbers are identical."""
        cells = [(_request(workload, ear_config=EarConfig()), "me")]
        cold = ExperimentPool(jobs=1, cache=RunCache(tmp_path))
        a = cold.averages(cells, seeds=(1, 2, 3))[0]
        assert cold.stats.simulations == 3

        warm = ExperimentPool(jobs=2, cache=RunCache(tmp_path))
        b = warm.averages(cells, seeds=(1, 2, 3))[0]
        assert warm.stats.simulations == 0
        assert warm.cache.stats.disk_hits == 3
        assert a.time_s == b.time_s
        assert a.dc_energy_j == b.dc_energy_j

    def test_uncached_pool_always_simulates(self, workload):
        pool = ExperimentPool(cache=None)
        pool.run_many([_request(workload)])
        pool.run_many([_request(workload)])
        assert pool.stats.simulations == 2

    def test_clear_drops_the_memory_cache(self, workload):
        pool = ExperimentPool(cache=RunCache())
        cells = [(_request(workload), "x")]
        a = pool.averages(cells, seeds=(1,))[0]
        pool.clear()
        b = pool.averages(cells, seeds=(1,))[0]
        assert pool.stats.simulations == 2  # the second call simulated again
        assert a.time_s == b.time_s
