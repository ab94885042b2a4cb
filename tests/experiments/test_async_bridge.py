"""AsyncPoolBridge's in-flight cap and the RunCache LRU bound."""

import asyncio
import threading
import time

import pytest

from repro.experiments.parallel import (
    AsyncPoolBridge,
    ExperimentPool,
    RunCache,
    RunRequest,
)
from tests.conftest import make_fast_workload


@pytest.fixture()
def workload():
    return make_fast_workload(n_iterations=60)


def _request(workload, **kwargs):
    defaults = dict(ear_config=None, seed=1, scale=0.3)
    defaults.update(kwargs)
    return RunRequest(workload=workload, **defaults)


class TestRunCacheLru:
    def test_unbounded_by_default(self, workload):
        cache = RunCache()
        pool = ExperimentPool(jobs=1, cache=cache)
        pool.run_many([_request(workload, seed=s) for s in range(1, 6)])
        assert len(cache) == 5
        assert cache.stats.memory_evictions == 0

    def test_bound_evicts_oldest(self, workload):
        cache = RunCache(max_memory_entries=3)
        pool = ExperimentPool(jobs=1, cache=cache)
        requests = [_request(workload, seed=s) for s in range(1, 6)]
        pool.run_many(requests)
        assert len(cache) == 3
        assert cache.stats.memory_evictions == 2
        # the oldest keys fell out, the newest survived
        assert cache.get(requests[0].key()) is None
        assert cache.get(requests[-1].key()) is not None

    def test_get_touches_recency(self, workload):
        cache = RunCache(max_memory_entries=2)
        pool = ExperimentPool(jobs=1, cache=cache)
        a, b, c = (_request(workload, seed=s) for s in (1, 2, 3))
        pool.run_many([a, b])
        assert cache.get(a.key()) is not None  # a becomes most recent
        pool.run_many([c])  # evicts b, not a
        assert cache.get(a.key()) is not None
        assert cache.get(b.key()) is None

    def test_disk_layer_survives_memory_eviction(self, workload, tmp_path):
        cache = RunCache(tmp_path, max_memory_entries=1)
        pool = ExperimentPool(jobs=1, cache=cache)
        a, b = _request(workload, seed=1), _request(workload, seed=2)
        pool.run_many([a, b])  # a evicted from memory, still on disk
        assert cache.get(a.key()) is not None
        assert cache.stats.disk_hits >= 1

    def test_concurrent_access_is_safe(self, workload):
        cache = RunCache(max_memory_entries=8)
        pool = ExperimentPool(jobs=1, cache=cache)
        pool.run_many([_request(workload, seed=s) for s in range(1, 5)])
        errors = []

        def hammer(offset):
            try:
                for i in range(200):
                    key = _request(workload, seed=1 + (offset + i) % 4).key()
                    cache.get(key)
            except Exception as exc:  # pragma: no cover - only on race
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestAsyncPoolBridge:
    def test_call_runs_blocking_fn(self, workload):
        pool = ExperimentPool(jobs=1, cache=RunCache())
        bridge = AsyncPoolBridge()

        async def main():
            results = await bridge.call(pool.run_many, [_request(workload)])
            return results

        results = asyncio.run(main())
        assert len(results) == 1
        assert bridge.inflight == 0

    def test_max_inflight_is_enforced(self):
        bridge = AsyncPoolBridge(max_inflight=2)
        active = []
        peak = []
        lock = threading.Lock()

        def blocking():
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.pop()

        async def main():
            await asyncio.gather(*(bridge.call(blocking) for _ in range(6)))

        asyncio.run(main())
        assert max(peak) <= 2
        assert bridge.peak_inflight <= 2
