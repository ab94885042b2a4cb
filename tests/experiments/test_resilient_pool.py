"""Resilient execution tier: retries, timeouts, crashes, quarantine.

The chaos tests (marked ``chaos``) sabotage real worker processes via
the ``REPRO_TEST_KILL_WORKER`` / ``REPRO_TEST_HANG_WORKER`` sentinel
hooks and assert the pool's acceptance bar: a batch that loses a worker
(or wedges one) still returns results bit-identical to the serial
execution.
"""

import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.motivation import uncore_sweep
from repro.experiments.parallel import ExperimentPool, RunCache, RunRequest
from repro.experiments.resilience import resilience_sweep
from repro.experiments.retry import (
    DEFAULT_RETRY_POLICY,
    AttemptRecord,
    FailedRun,
    RetryPolicy,
)
from tests.conftest import make_fast_workload


@pytest.fixture()
def workload():
    return make_fast_workload(n_iterations=60)


def _request(workload, **kwargs):
    defaults = dict(ear_config=None, seed=1, scale=0.3)
    defaults.update(kwargs)
    return RunRequest(workload=workload, **defaults)


class PoisonRequest(RunRequest):
    """A request whose execution always raises (module-level: picklable)."""

    def execute(self):
        raise ValueError("poison job")


def _poison(workload, **kwargs):
    defaults = dict(ear_config=None, seed=99, scale=0.3)
    defaults.update(kwargs)
    return PoisonRequest(workload=workload, **defaults)


#: retries without wall-clock delay, for fast deterministic tests.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


class TestRetryPolicy:
    def test_defaults_are_conservative(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.timeout_s is None
        assert not DEFAULT_RETRY_POLICY.retry_task_errors

    def test_validation(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExperimentError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ExperimentError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ExperimentError):
            RetryPolicy(jitter=1.5)

    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.backoff_s("k1", 1) == policy.backoff_s("k1", 1)
        assert policy.backoff_s("k1", 1) != policy.backoff_s("k2", 1)
        # a different policy seed decorrelates the schedule
        assert policy.backoff_s("k1", 1) != RetryPolicy(seed=7).backoff_s("k1", 1)

    def test_backoff_is_exponential_and_bounded(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=1.0, jitter=0.25
        )
        for attempt in (1, 2, 3, 10):
            base = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.backoff_s("key", attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_backoff_without_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_s("key", 1) == pytest.approx(0.1)
        assert policy.backoff_s("key", 2) == pytest.approx(0.2)

    def test_attempt_counting_starts_at_one(self):
        with pytest.raises(ExperimentError):
            RetryPolicy().backoff_s("key", 0)

    def test_task_errors_not_retried_by_default(self):
        assert RetryPolicy().attempts_for("task_error") == 1
        assert RetryPolicy(retry_task_errors=True).attempts_for("task_error") == 3
        assert RetryPolicy().attempts_for("worker_crash") == 3
        assert RetryPolicy().attempts_for("timeout") == 3


class TestFailedRun:
    def test_accessors(self):
        failed = FailedRun(
            key="k",
            workload="BT-MZ.C",
            seed=3,
            attempts=(
                AttemptRecord(1, "worker_crash", "SIGKILL", 0.05),
                AttemptRecord(2, "timeout"),
            ),
        )
        assert not failed.ok
        assert failed.error_kind == "timeout"
        assert failed.n_attempts == 2
        assert "BT-MZ.C seed 3" in failed.describe()

    def test_attempt_record_round_trips_to_json(self):
        rec = AttemptRecord(2, "task_error", "ValueError('x')", 0.1)
        assert rec.to_dict() == {
            "attempt": 2,
            "kind": "task_error",
            "error": "ValueError('x')",
            "backoff_s": 0.1,
        }


class TestQuarantine:
    def test_serial_poison_job_returns_failed_run(self, workload):
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        good = _request(workload)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = pool.run_many([good, _poison(workload)])
        assert results[0].time_s > 0  # the good run is unaffected
        assert isinstance(results[1], FailedRun)
        assert results[1].error_kind == "task_error"
        assert results[1].n_attempts == 1  # deterministic errors: no retry
        assert "poison job" in results[1].error
        assert pool.stats.quarantined == 1
        assert pool.stats.retries == 0

    def test_serial_task_errors_retry_when_asked(self, workload):
        policy = RetryPolicy(
            max_attempts=3, retry_task_errors=True, backoff_base_s=0.0, jitter=0.0
        )
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=policy)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            (failed,) = pool.run_many([_poison(workload)])
        assert failed.n_attempts == 3
        assert [a.attempt for a in failed.attempts] == [1, 2, 3]
        assert pool.stats.retries == 2

    def test_parallel_poison_job_spares_the_batch(self, workload):
        pool = ExperimentPool(jobs=2, cache=RunCache(), retry=FAST_RETRY)
        requests = [
            _request(workload, seed=1),
            _poison(workload),
            _request(workload, seed=2),
        ]
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = pool.run_many(requests)
        assert results[0].seed == 1 and results[2].seed == 2
        assert isinstance(results[1], FailedRun)
        assert results[1].error_kind == "task_error"
        assert pool.stats.quarantined == 1

    def test_failed_runs_are_never_cached(self, workload):
        cache = RunCache()
        pool = ExperimentPool(jobs=1, cache=cache, retry=FAST_RETRY)
        poison = _poison(workload)
        with pytest.warns(RuntimeWarning):
            pool.run_many([poison])
        assert cache.get(poison.key()) is None


class TestDegradedAveraging:
    def _flaky(self, monkeypatch, bad_seed=2):
        real = RunRequest.execute

        def execute(self):
            if self.seed == bad_seed:
                raise ValueError(f"seed {bad_seed} poisoned")
            return real(self)

        monkeypatch.setattr(RunRequest, "execute", execute)

    def test_failed_seed_excluded_with_coverage(self, workload, monkeypatch):
        self._flaky(monkeypatch)
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        with pytest.warns(RuntimeWarning, match="averaging over 2/3 seeds"):
            (avg,) = pool.averages([(_request(workload), "x")], seeds=(1, 2, 3))
        assert avg.n_failed == 1
        assert avg.n_runs == 2
        assert {r.seed for r in avg.runs} == {1, 3}

    def test_all_seeds_failed_raises(self, workload, monkeypatch):
        self._flaky(monkeypatch)
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        with pytest.raises(ExperimentError, match="all 1 seeded runs"), pytest.warns(
            RuntimeWarning
        ):
            pool.averages([(_request(workload), "x")], seeds=(2,))

    def test_degraded_average_is_not_memoised(self, workload, monkeypatch):
        self._flaky(monkeypatch)
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        cells = [(_request(workload), "x")]
        with pytest.warns(RuntimeWarning):
            (a,) = pool.averages(cells, seeds=(1, 2))
        with pytest.warns(RuntimeWarning):
            (b,) = pool.averages(cells, seeds=(1, 2))
        assert a is not b  # the gap must not be pinned

    @pytest.fixture()
    def default_pool(self, monkeypatch):
        """A fresh process-default pool, which the sweeps submit to."""
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        monkeypatch.setattr(parallel, "_default_pool", pool)
        return pool

    @pytest.mark.parametrize("sweep", ["uncore", "resilience"])
    def test_sweep_point_averages_the_survivors(
        self, workload, monkeypatch, default_pool, sweep
    ):
        """The sweeps share the tables' quarantine policy: a failed
        seed is excluded with a warning, the sweep completes, and each
        point equals the clean sweep over the surviving seeds."""
        if sweep == "uncore":
            run = functools.partial(
                uncore_sweep,
                workload,
                cpu_ghz=2.4,
                scale=0.3,
                min_ratio=22,
                max_ratio=24,
            )
        else:
            run = functools.partial(
                resilience_sweep, workload, intensities=(0.0, 1.0), scale=0.3
            )
        expected = run(seeds=(1, 3))
        self._flaky(monkeypatch)
        with pytest.warns(RuntimeWarning, match="averaging over 2/3 seeds"):
            degraded = run(seeds=(1, 2, 3))
        assert degraded == expected
        assert default_pool.stats.quarantined == len(expected.points) + 1


class TestCacheWriteFailures:
    def test_counted_and_warned_once(self, workload, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)

        def boom(key, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "_store_disk", boom)
        pool = ExperimentPool(jobs=1, cache=cache)
        with pytest.warns(RuntimeWarning, match="disk write"):
            pool.run_many([_request(workload, seed=s) for s in (1, 2)])
        assert cache.stats.write_failures == 2
        assert pool.stats.cache_write_failures == 2
        # served from the memory layer regardless
        assert pool.run_many([_request(workload, seed=1)])[0].time_s > 0
        assert pool.stats.simulations == 2

    def test_second_failure_does_not_rewarn(self, workload, tmp_path, monkeypatch):
        cache = RunCache(tmp_path)
        monkeypatch.setattr(
            cache, "_store_disk", lambda key, result: (_ for _ in ()).throw(OSError())
        )
        pool = ExperimentPool(jobs=1, cache=cache)
        with pytest.warns(RuntimeWarning) as record:
            pool.run_many([_request(workload, seed=s) for s in (1, 2, 3)])
        assert (
            sum("disk write" in str(w.message) for w in record) == 1
        )


@pytest.mark.chaos
class TestChaos:
    """Real worker-process sabotage via the environment sentinels."""

    def _serial_baseline(self, requests):
        return ExperimentPool(jobs=1, cache=RunCache()).run_many(requests)

    def test_killed_worker_is_bit_identical_to_serial(
        self, workload, tmp_path, monkeypatch
    ):
        requests = [_request(workload, seed=s) for s in (1, 2, 3, 4)]
        serial = self._serial_baseline(requests)

        monkeypatch.setenv("REPRO_TEST_KILL_WORKER", str(tmp_path / "kill.sentinel"))
        pool = ExperimentPool(jobs=2, cache=RunCache(), retry=FAST_RETRY)
        survived = pool.run_many(requests)

        assert (tmp_path / "kill.sentinel").exists()  # the sabotage fired
        assert pool.stats.worker_crashes >= 1
        assert pool.stats.retries >= 1
        for a, b in zip(serial, survived):
            assert not isinstance(b, FailedRun)
            assert a.time_s == b.time_s
            assert a.dc_energy_j == b.dc_energy_j
            assert a.nodes == b.nodes

    def test_hung_worker_times_out_and_recovers(
        self, workload, tmp_path, monkeypatch
    ):
        requests = [_request(workload, seed=s) for s in (1, 2, 3)]
        serial = self._serial_baseline(requests)

        monkeypatch.setenv("REPRO_TEST_HANG_WORKER", str(tmp_path / "hang.sentinel"))
        policy = RetryPolicy(
            max_attempts=3, timeout_s=2.0, backoff_base_s=0.0, jitter=0.0
        )
        pool = ExperimentPool(jobs=2, cache=RunCache(), retry=policy)
        survived = pool.run_many(requests)

        assert (tmp_path / "hang.sentinel").exists()
        assert pool.stats.timeouts >= 1
        for a, b in zip(serial, survived):
            assert not isinstance(b, FailedRun)
            assert a.time_s == b.time_s
            assert a.dc_energy_j == b.dc_energy_j


    def test_queued_requests_are_never_charged_a_timeout(
        self, workload, monkeypatch
    ):
        """Each run fits its deadline; only queueing behind the two
        workers could make one look overdue.  Deadlines start when a
        request starts running, so none expires."""
        real = RunRequest.execute

        def slow_execute(self):  # forked workers inherit the patch
            time.sleep(0.5)
            return real(self)

        monkeypatch.setattr(RunRequest, "execute", slow_execute)
        policy = RetryPolicy(
            max_attempts=3, timeout_s=1.5, backoff_base_s=0.0, jitter=0.0
        )
        pool = ExperimentPool(jobs=2, cache=RunCache(), retry=policy)
        results = pool.run_many([_request(workload, seed=s) for s in range(1, 9)])

        assert not any(isinstance(r, FailedRun) for r in results)
        assert [r.seed for r in results] == list(range(1, 9))
        assert pool.stats.timeouts == 0
        assert pool.stats.retries == 0

    def test_killed_worker_charges_at_most_jobs_requests(
        self, workload, tmp_path, monkeypatch
    ):
        """A broken pool charges only the requests that were running."""
        monkeypatch.setenv("REPRO_TEST_KILL_WORKER", str(tmp_path / "kill.sentinel"))
        pool = ExperimentPool(jobs=2, cache=RunCache(), retry=FAST_RETRY)
        results = pool.run_many([_request(workload, seed=s) for s in range(1, 9)])

        assert (tmp_path / "kill.sentinel").exists()
        assert not any(isinstance(r, FailedRun) for r in results)
        assert pool.stats.worker_crashes == 1
        assert 1 <= pool.stats.retries <= pool.jobs

    def test_in_process_batch_shares_the_loop_without_chaos_hooks(
        self, workload, monkeypatch
    ):
        """``jobs=1`` charges through the same ``_charge`` as the worker
        pool, and runs ``RunRequest.execute`` itself, never the worker
        entry point's chaos hooks."""
        hooked, charged = [], []
        monkeypatch.setattr(parallel, "_chaos_hook", lambda: hooked.append(1))
        real_charge = ExperimentPool._charge

        def spy_charge(self, key, kind, *args):
            charged.append(kind)
            return real_charge(self, key, kind, *args)

        monkeypatch.setattr(ExperimentPool, "_charge", spy_charge)
        pool = ExperimentPool(jobs=1, cache=RunCache(), retry=FAST_RETRY)
        requests = [_request(workload, seed=1), _poison(workload), _request(workload, seed=2)]
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = pool.run_many(requests)

        assert hooked == []
        assert charged == ["task_error"]
        assert results[0].seed == 1 and results[2].seed == 2
        assert isinstance(results[1], FailedRun)


@pytest.mark.chaos
class TestCliInterrupt:
    def test_sigint_exits_130_with_resume_hint(self, tmp_path):
        """Ctrl-C mid-campaign: exit 130, no traceback, journal intact."""
        src = Path(__file__).resolve().parents[2] / "src"
        hang = tmp_path / "hang.sentinel"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}".rstrip(":")
        env["REPRO_TEST_HANG_WORKER"] = str(hang)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "-j",
                "2",
                "--no-cache",
                "learn",
                "--grid",
                "coarse",
                "--kernels",
                "STREAM",
                "--out",
                "none",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not hang.exists():  # a worker is now provably wedged
                assert time.monotonic() < deadline, "worker never started"
                assert proc.poll() is None, "CLI exited before the interrupt"
                time.sleep(0.1)
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted" in stderr
        assert "--resume" in stderr
        assert "Traceback" not in stderr
        journals = list((tmp_path / "results" / ".journal").glob("*.jsonl"))
        assert len(journals) == 1
