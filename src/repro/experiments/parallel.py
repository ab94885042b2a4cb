"""Parallel experiment execution with a persistent run cache.

The paper's methodology multiplies work: every table and figure
averages three seeded runs per configuration per workload, and a full
regeneration touches hundreds of (workload, config, seed, scale)
combinations — an embarrassingly parallel sweep.  This module provides
the execution layer behind every table, figure and sweep builder:

:class:`RunRequest`
    One simulation job, content-addressed.  The cache key is a SHA-256
    hash of the workload spec, the EAR configuration fields, the seed,
    the scale, the pin/noise parameters and a cache-format version —
    display names (``config_name``) are deliberately *not* part of the
    key or the cached value, so the same physical run requested under
    two different names shares one cache entry and is stamped with the
    requester's name on retrieval.

:class:`RunCache`
    Two-layer result cache: an in-process dict in front of an optional
    on-disk store (``results/.cache/`` by convention).  Disk entries
    are versioned; a format bump invalidates them wholesale.  Disk
    failures (full disk, revoked permissions, corrupt pickles) degrade
    the cache to its memory layer — counted and warned about once,
    never fatal to the batch and never silently swallowed.

:class:`ExperimentPool`
    Fans a batch of requests out over ``concurrent.futures``
    ``ProcessPoolExecutor`` workers and merges the results
    deterministically: outputs are ordered by submission key,
    independent of completion order, so averaged numbers are
    bit-identical to a serial run of the same seeds.

    The pool is *fault-tolerant*: a worker killed mid-batch
    (``BrokenProcessPool``) is respawned and only the incomplete
    requests are resubmitted; a request exceeding the
    :class:`~repro.experiments.retry.RetryPolicy` wall-clock
    timeout has its worker killed and is retried under seeded
    exponential backoff; a request that keeps failing is quarantined
    and returned as a structured
    :class:`~repro.experiments.retry.FailedRun` instead of raising,
    so a three-hour campaign never collapses to an exception at hour
    three.  An optional
    :class:`~repro.experiments.journal.CampaignJournal` records every
    submitted/completed/failed request as it happens (fsync'd), which
    is what makes campaigns resumable.

All simulation stochasticity flows from the per-run seed, so executing
a request in a worker process yields exactly the bytes a serial
execution would — including after crash recovery and retries, which
change *when* a request executes but never *what* it computes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from operator import methodcaller
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..ear.config import EarConfig
from ..errors import ExperimentError
from ..sim.engine import RunSpec
from ..sim.result import RunResult
from .journal import CampaignJournal
from .retry import DEFAULT_RETRY_POLICY, AttemptRecord, FailedRun, RetryPolicy

if TYPE_CHECKING:
    from .runner import AveragedResult, Comparison

__all__ = [
    "AsyncPoolBridge",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "ExperimentPool",
    "FailedRun",
    "RetryPolicy",
    "RunCache",
    "RunRequest",
    "configure_defaults",
    "default_pool",
]

#: Bump when the simulation model or the result layout changes in a way
#: that makes previously persisted runs incomparable.  Part of every
#: cache key, and verified again on disk load.
#: v2: NodeResult grew the NodeHealth record and requests carry a fault
#: plan, so v1 pickles no longer match the result layout.
#: v3: NodeResult grew a telemetry snapshot and RunResult the hardware
#: frequency ranges, so v2 pickles no longer match the result layout.
#: v4: NodeResult grew per-node ``seconds`` (accounting divides a
#: node's energy by its own elapsed time), so v3 pickles would restore
#: with zero-length node durations.
#: v5: EarConfig grew ``coefficients_path`` (the projection-model
#: coefficient source); it is a compared field, so the canonical config
#: encoding — and with it every cache key — changed shape.
#: v6: requests carry the inner-loop ``engine`` choice
#: (scalar/batched).  The engines are equivalent only to 1e-9, not
#: bit-exactly, so a cached scalar run must never answer a batched
#: request (or vice versa) — the engine is part of the key.
#: (The PR-7 infrastructure fault channels deliberately did NOT bump
#: this version: they are ``compare=False`` fields on FaultPlan, never
#: part of the content hash, because they perturb the *execution tier*,
#: not the job physics.)
#: v7: NodeConfig grew ``uncore_backend`` and ``dies_per_socket``
#: (compared fields — the control path changes the physics on TPMI via
#: the ELC floor), so the canonical node encoding inside every key
#: changed shape.
#: This comment block is the authoritative version history; docs point
#: here instead of repeating the number.
CACHE_FORMAT_VERSION = 7


# -- content hashing ---------------------------------------------------------


def _canonical(obj):
    """Reduce a value to a JSON-serialisable canonical form.

    Dataclasses flatten to their compared fields (``compare=False``
    fields like ``Workload._calibrated`` are execution details, not
    identity); floats go through ``repr`` for exact round-tripping.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    return repr(obj)


class RunRequest(RunSpec):
    """One content-addressed simulation job: a ``RunSpec`` plus its cache key."""

    def key(self) -> str:
        """Content-address of this request (SHA-256 over compared fields).

        The fault plan participates only through its *hardware*
        channels: the infrastructure channels (node crash, EARDBD
        restart) are ``compare=False`` fields that perturb the cluster
        control plane, never the job physics, so a plan with nothing
        but infra rates canonicalises to None and shares the clean
        run's cache entry.  ``engine`` is keyed because the two engines
        agree only within the equivalence gate's tolerance.
        ``telemetry`` is not keyed: a telemetry-bearing result is the
        plain result plus extra observability, so the two share one
        entry (the pool upgrades an entry in place when a telemetry
        request misses on a telemetry-free cached run).
        """
        plan = self.fault_plan
        if plan is not None and not plan.enabled:
            plan = None
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "workload": _canonical(self.workload),
            "config": _canonical(self.ear_config),
            "seed": self.seed,
            "scale": repr(self.scale),
            "pin_cpu_ghz": _canonical(self.pin_cpu_ghz),
            "pin_uncore_ghz": _canonical(self.pin_uncore_ghz),
            "noise_sigma": repr(self.noise_sigma),
            "node_speed_spread": repr(self.node_speed_spread),
            "fault_plan": _canonical(plan),
            "engine": self.engine,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _execute_request(request: RunRequest) -> RunResult:
    """Module-level worker entry point (must be picklable).

    The ``REPRO_TEST_KILL_WORKER`` / ``REPRO_TEST_HANG_WORKER``
    environment hooks let the chaos suite kill or wedge exactly one
    worker deterministically (the first execution creates the sentinel
    file, so retries proceed normally); both are inert unless the
    variable is set.
    """
    _chaos_hook()
    return request.execute()


class _InProcessExecutor:
    """The executor of an in-process batch: runs each submission now.

    Every future it returns is already resolved, so the pool's loop
    never waits on it, no deadline can expire and nothing can break.
    """

    def submit(self, fn: Callable, /, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # quarantine boundary
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


def _chaos_hook() -> None:
    """Test-only worker sabotage, armed via environment sentinels."""
    kill_sentinel = os.environ.get("REPRO_TEST_KILL_WORKER")
    if kill_sentinel:
        try:
            fd = os.open(kill_sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
    hang_sentinel = os.environ.get("REPRO_TEST_HANG_WORKER")
    if hang_sentinel:
        try:
            fd = os.open(hang_sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            while True:  # wedged worker: only a SIGKILL gets us out
                time.sleep(3600)


# -- the cache ---------------------------------------------------------------


@dataclass
class CacheStats:
    """Observability counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    #: disk writes that failed (full disk, permissions); the result
    #: stays served from the memory layer.
    write_failures: int = 0
    #: corrupt/foreign/stale disk entries dropped on load.
    corrupt_drops: int = 0
    #: memory-layer entries evicted by the LRU bound (disk copies, if
    #: configured, survive and re-load on the next hit).
    memory_evictions: int = 0


class RunCache:
    """Two-layer (memory + optional disk) store of :class:`RunResult`.

    ``directory=None`` keeps the cache purely in-process — the unit-test
    default.  With a directory, every stored run is pickled to
    ``<key>.run`` together with the format version, atomically
    (tempfile + rename), and survives across processes and sessions.

    Disk-layer failures never propagate: a failed write is counted in
    :attr:`CacheStats.write_failures` and warned about once per cache
    instance (the batch continues on the memory layer), a corrupt entry
    is dropped and counted in :attr:`CacheStats.corrupt_drops`.

    ``max_memory_entries`` bounds the memory layer with LRU eviction —
    the knob the long-lived service tier uses to keep a read-through
    cache from growing without bound.  Evicted entries that were
    persisted to disk transparently re-load on their next hit.  The
    memory layer is guarded by a lock, so concurrently pumping service
    workers can share one cache.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        version: int = CACHE_FORMAT_VERSION,
        max_memory_entries: int | None = None,
    ) -> None:
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ExperimentError("max_memory_entries must be >= 1 (or None)")
        self.directory = Path(directory) if directory is not None else None
        self.version = version
        self.max_memory_entries = max_memory_entries
        self.stats = CacheStats()
        self._memory: dict[str, RunResult] = {}
        self._lock = threading.RLock()
        self._warned_write_failure = False

    # -- lookup --------------------------------------------------------------

    def get(self, key: str) -> RunResult | None:
        """Cached result for a key, trying memory then disk."""
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                if self.max_memory_entries is not None:
                    self._memory[key] = self._memory.pop(key)  # LRU touch
                self.stats.hits += 1
                return result
        result = self._load_disk(key)
        if result is not None:
            with self._lock:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._memory[key] = result
                self._evict_over_bound()
            return result
        self.stats.misses += 1
        return None

    def put(self, key: str, result: RunResult) -> None:
        """Store a result in memory and (if configured) on disk.

        A disk failure degrades this put to memory-only: counted,
        warned once per cache instance, never raised — losing cache
        persistence must not lose the batch.
        """
        with self._lock:
            if self.max_memory_entries is not None:
                self._memory.pop(key, None)  # re-insert at LRU tail
            self._memory[key] = result
            self.stats.stores += 1
            self._evict_over_bound()
        if self.directory is None:
            return
        try:
            self._store_disk(key, result)
        except Exception as exc:
            self.stats.write_failures += 1
            if not self._warned_write_failure:
                self._warned_write_failure = True
                warnings.warn(
                    f"run-cache disk write to {self.directory} failed "
                    f"({exc!r}); continuing with the in-memory layer only "
                    "(further failures are counted, not repeated)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _evict_over_bound(self) -> None:
        """Drop least-recently-used entries past the memory bound."""
        if self.max_memory_entries is None:
            return
        while len(self._memory) > self.max_memory_entries:
            oldest = next(iter(self._memory))
            del self._memory[oldest]
            self.stats.memory_evictions += 1

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory layer; with ``disk=True`` also the files."""
        with self._lock:
            self._memory.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*.run"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    # -- disk layer ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.run"

    def _load_disk(self, key: str) -> RunResult | None:
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                version, result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # corrupt or foreign file: drop it, count it, treat as miss
            self.stats.corrupt_drops += 1
            path.unlink(missing_ok=True)
            return None
        if version != self.version or not isinstance(result, RunResult):
            path.unlink(missing_ok=True)
            return None
        return result

    def _store_disk(self, key: str, result: RunResult) -> None:
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump((self.version, result), fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise


# -- the pool ----------------------------------------------------------------


@dataclass
class PoolStats:
    """What the pool actually did (vs. what the cache absorbed)."""

    simulations: int = 0
    batches: int = 0
    #: resubmissions after a failed attempt (any kind).
    retries: int = 0
    #: attempts lost to a per-job wall-clock timeout.
    timeouts: int = 0
    #: worker-pool breakages survived (respawn + resubmit).
    worker_crashes: int = 0
    #: requests quarantined as poison jobs (returned as FailedRun).
    quarantined: int = 0
    #: disk-cache write failures observed while storing results.
    cache_write_failures: int = 0


class ExperimentPool:
    """Executes batches of :class:`RunRequest` with caching + fan-out.

    ``jobs`` is the worker-process count: 1 (the default) executes
    in-process and spawns nothing; higher values fan each batch's cache
    misses out over a ``ProcessPoolExecutor``.  Results always come
    back ordered by submission, so any reduction over them (averaging,
    comparison) is bit-identical to the serial execution.

    ``retry`` is the pool's :class:`RetryPolicy` — worker crashes and
    timeouts are retried under seeded exponential backoff, and a
    request that exhausts its attempts comes back as a
    :class:`FailedRun` in the result tuple instead of raising.
    ``journal`` (assignable after construction) receives a write-ahead
    record of every submitted/completed/failed request.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache: RunCache | None = None,
        retry: RetryPolicy | None = None,
        journal: CampaignJournal | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs)) if jobs else 1
        self.cache = cache
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        #: write-ahead campaign journal; assign/clear around a campaign.
        self.journal = journal
        self.stats = PoolStats()

    # -- execution -----------------------------------------------------------

    def run_many(
        self, requests: Sequence[RunRequest]
    ) -> tuple[RunResult | FailedRun, ...]:
        """Execute a batch; return results in submission order.

        Duplicate requests inside one batch execute once.  Cache misses
        run concurrently when ``jobs > 1``.  Requests that exhaust the
        retry policy come back as :class:`FailedRun` entries (never
        cached) — the batch itself does not raise for a poison job.
        """
        keyed = [(req.key(), req) for req in requests]
        results: dict[str, RunResult | FailedRun] = {}
        pending: dict[str, RunRequest] = {}
        for key, req in keyed:
            # a telemetry-wanting duplicate upgrades an already-pending
            # plain request: one execution serves both callers.
            if key in pending:
                if req.telemetry and not pending[key].telemetry:
                    pending[key] = req
                continue
            if key in results:
                if req.telemetry and not getattr(results[key], "has_telemetry", True):
                    pending[key] = req
                    del results[key]
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None and not (req.telemetry and not cached.has_telemetry):
                # telemetry is not part of the key, so a telemetry
                # request can hit a telemetry-free entry; re-run it and
                # upgrade the entry in place (same physics, more info).
                results[key] = cached
                if self.journal is not None:
                    self.journal.submitted(key, workload=req.workload.name, seed=req.seed)
                    self.journal.completed(key, cached=True)
            else:
                pending[key] = req
        if pending:
            self.stats.batches += 1
            self.stats.simulations += len(pending)
            if self.journal is not None:
                for key, req in pending.items():
                    self.journal.submitted(
                        key, workload=req.workload.name, seed=req.seed
                    )
            for key, result in self._execute(pending, self._on_done):
                results[key] = result
        return tuple(results[key] for key, _ in keyed)

    def _on_done(self, key: str, result: RunResult | FailedRun) -> None:
        """Per-completion hook: cache + journal as soon as it is known."""
        if isinstance(result, FailedRun):
            if self.journal is not None:
                self.journal.failed(
                    key,
                    error=result.error or result.error_kind,
                    attempts=result.n_attempts,
                )
            return
        if self.cache is not None:
            before = self.cache.stats.write_failures
            self.cache.put(key, result)
            self.stats.cache_write_failures += self.cache.stats.write_failures - before
        if self.journal is not None:
            self.journal.completed(key)

    # -- the resilient execution core ----------------------------------------

    def _execute(
        self,
        pending: Mapping[str, RunRequest],
        on_done: Callable[[str, RunResult | FailedRun], None],
    ) -> list[tuple[str, RunResult | FailedRun]]:
        """The one execution loop, in-process or over worker processes.

        ``jobs == 1``, or a lone request with no timeout to enforce,
        runs each request in this process through
        :meth:`RunRequest.execute` (never the worker entry point, so
        the chaos hooks cannot fire here); anything else fans out over
        a ``ProcessPoolExecutor``.  The loop keeps three pieces of
        state: ``ready`` (keys awaiting submission), ``inflight``
        (future → key, at most ``jobs`` of them, so every in-flight
        request is running and its deadline starts when it does) and
        ``resolved`` (final results).  A broken pool charges every
        in-flight request one ``worker_crash`` attempt (the pool cannot
        attribute the death) and respawns; an expired per-job deadline
        kills the pool — the only way to stop a running worker — and
        charges only the overdue request, requeueing bystanders free of
        charge.  Requeued requests go to the front of ``ready``, so an
        in-process retry runs before the next request.
        """
        requests = dict(pending)
        in_process = self.jobs == 1 or (
            len(requests) == 1 and self.retry.timeout_s is None
        )
        # in-process: RunRequest.execute itself (subclass overrides too)
        target = methodcaller("execute") if in_process else _execute_request
        attempts: dict[str, list[AttemptRecord]] = {key: [] for key in requests}
        resolved: dict[str, RunResult | FailedRun] = {}
        ready: deque[str] = deque(requests)
        inflight: dict[Future, str] = {}
        deadlines: dict[str, float] = {}
        executor = None
        backoff_due = 0.0

        def charge(key: str, kind: str, error: str = "") -> None:
            nonlocal backoff_due
            delay = self._charge(
                key, kind, error, requests, attempts, resolved, ready, on_done
            )
            backoff_due = max(backoff_due, delay)

        try:
            while ready or inflight:
                if executor is None:
                    executor = (
                        _InProcessExecutor()
                        if in_process
                        else ProcessPoolExecutor(max_workers=min(self.jobs, len(ready)))
                    )
                if backoff_due > 0:
                    time.sleep(backoff_due)
                    backoff_due = 0.0
                while ready and len(inflight) < self.jobs:
                    key = ready.popleft()
                    inflight[executor.submit(target, requests[key])] = key
                    if self.retry.timeout_s is not None:
                        deadlines[key] = time.monotonic() + self.retry.timeout_s
                wait_s = None
                if deadlines:
                    wait_s = max(0.0, min(deadlines.values()) - time.monotonic())
                done, _ = wait(set(inflight), timeout=wait_s, return_when=FIRST_COMPLETED)
                if not done:
                    # a per-job deadline expired with nothing finishing:
                    # the overdue worker must be killed, which costs us
                    # the whole pool.
                    now = time.monotonic()
                    self._kill_executor(executor)
                    executor = None
                    for key in inflight.values():
                        if deadlines.pop(key) <= now:
                            self.stats.timeouts += 1
                            charge(key, "timeout")
                        else:
                            ready.appendleft(key)
                    inflight.clear()
                    continue
                crashed = False
                for future in done:
                    key = inflight.pop(future)
                    deadlines.pop(key, None)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        crashed = True
                        charge(key, "worker_crash")
                    except Exception as exc:
                        charge(key, "task_error", repr(exc))
                    else:
                        resolved[key] = result
                        on_done(key, result)
                if crashed:
                    # the executor is dead; every remaining in-flight
                    # request lost its work with it.
                    self.stats.worker_crashes += 1
                    for key in inflight.values():
                        deadlines.pop(key, None)
                        charge(key, "worker_crash")
                    inflight.clear()
                    self._kill_executor(executor)
                    executor = None
        except BaseException:
            if executor is not None:
                self._kill_executor(executor)
            raise
        if executor is not None:
            executor.shutdown(wait=True)
        return [(key, resolved[key]) for key in requests]

    def _charge(
        self,
        key: str,
        kind: str,
        error: str,
        requests: Mapping[str, RunRequest],
        attempts: dict[str, list[AttemptRecord]],
        resolved: dict[str, RunResult | FailedRun],
        ready: deque,
        on_done: Callable[[str, RunResult | FailedRun], None],
    ) -> float:
        """Charge one failed attempt; requeue (at the front) or quarantine.

        Returns the backoff delay owed before the next submission round
        (0 when the request was quarantined).
        """
        attempt_no = len(attempts[key]) + 1
        if attempt_no < self.retry.attempts_for(kind):
            delay = self.retry.backoff_s(key, attempt_no)
            attempts[key].append(AttemptRecord(attempt_no, kind, error, delay))
            self.stats.retries += 1
            ready.appendleft(key)
            return delay
        attempts[key].append(AttemptRecord(attempt_no, kind, error))
        failed = self._quarantine(key, requests[key], attempts[key])
        resolved[key] = failed
        on_done(key, failed)
        return 0.0

    def _quarantine(
        self, key: str, req: RunRequest, attempts: list[AttemptRecord]
    ) -> FailedRun:
        failed = FailedRun(
            key=key,
            workload=req.workload.name,
            seed=req.seed,
            attempts=tuple(attempts),
        )
        self.stats.quarantined += 1
        warnings.warn(
            f"experiment pool quarantined a poison job: {failed.describe()}",
            RuntimeWarning,
            stacklevel=3,
        )
        return failed

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor | _InProcessExecutor) -> None:
        """Forcibly tear a pool down (wedged or broken workers)."""
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    # -- high-level operations ----------------------------------------------

    def averages(
        self,
        cells: Sequence[tuple[RunRequest, str]],
        *,
        seeds: Iterable[int],
    ) -> list[AveragedResult]:
        """Average each ``(request, config_name)`` cell over the seeds.

        The only place a seeded experiment is averaged.  Each cell's
        request runs once per seed (``replace(request, seed=s)``; the
        seed the cell carries is ignored), and every cell × seed goes
        into *one* :meth:`run_many` batch, so a whole table, figure or
        sweep fans out at once and each distinct run executes exactly
        once; one :class:`AveragedResult` per cell comes back in cell
        order.  The cached runs carry no display name; ``config_name``
        is stamped on the assembled result, so a cache warmed under one
        name never leaks it to another requester.

        Quarantined seeds are *excluded* from a cell's average and
        counted in ``AveragedResult.n_failed`` (coverage degrades
        gracefully); only a cell with zero surviving seeds raises.
        """
        from .runner import AveragedResult

        seeds = tuple(seeds)
        if not seeds:
            raise ExperimentError("cannot average over an empty seed set")
        n = len(seeds)
        runs = self.run_many(
            [
                dataclasses.replace(request, seed=s)
                for request, _ in cells
                for s in seeds
            ]
        )
        out = []
        for i, (request, config_name) in enumerate(cells):
            name = request.workload.name
            group = runs[i * n : (i + 1) * n]
            failures = tuple(r for r in group if isinstance(r, FailedRun))
            survivors = tuple(r for r in group if not isinstance(r, FailedRun))
            label = config_name or "unnamed config"
            if not survivors:
                raise ExperimentError(
                    f"all {n} seeded runs of {name!r} ({label}) failed; "
                    f"first: {failures[0].describe()}"
                )
            if failures:
                warnings.warn(
                    f"{name} ({label}): averaging over "
                    f"{len(survivors)}/{n} seeds — "
                    + "; ".join(f.describe() for f in failures),
                    RuntimeWarning,
                    stacklevel=2,
                )
            out.append(
                AveragedResult.from_runs(
                    name, config_name, survivors, n_failed=len(failures)
                )
            )
        return out

    def compare_many(
        self,
        items: Sequence[tuple[RunRequest, Mapping[str, EarConfig | None]]],
        *,
        seeds: Iterable[int],
    ) -> list[dict[str, Comparison]]:
        """Compare each base request's configurations against its ``none`` run.

        ``items`` pairs a base request (workload, scale, pins, fault
        plan, engine) with its named configurations; each configuration
        replaces the base's ``ear_config``, and a missing ``none``
        reference is injected.  Every item's reference and
        configurations go into one :meth:`averages` call, so a figure
        with several series is a single batch.  Returns one
        ``{config_name: Comparison}`` dict per item, in item order.
        """
        from .runner import Comparison

        items = [
            (base, configs if "none" in configs else {"none": None, **configs})
            for base, configs in items
        ]
        averaged = iter(
            self.averages(
                [
                    (dataclasses.replace(base, ear_config=cfg), name)
                    for base, configs in items
                    for name, cfg in configs.items()
                ],
                seeds=seeds,
            )
        )
        out = []
        for base, configs in items:
            by_name = {name: next(averaged) for name in configs}
            reference = by_name.pop("none")
            out.append(
                {
                    name: Comparison(
                        workload=base.workload.name,
                        config_name=name,
                        reference=reference,
                        result=result,
                    )
                    for name, result in by_name.items()
                }
            )
        return out

    # -- maintenance ---------------------------------------------------------

    def clear(self, *, disk: bool = False) -> None:
        """Drop the cache's memory layer; with ``disk=True`` also its files."""
        if self.cache is not None:
            self.cache.clear(disk=disk)


# -- async submission bridge -------------------------------------------------


class AsyncPoolBridge:
    """Bounded asyncio dispatch of blocking simulation work.

    The service tier's event loop must never block on simulation work.
    The bridge runs blocking callables (the service's simulation-stepping
    closures) on worker threads, capped at ``max_inflight`` concurrent
    dispatches; excess callers queue on the internal semaphore.  Load
    shedding is not the bridge's job: the service rejects submissions
    past each worker's ``max_pending`` with a ``backpressure`` error.
    """

    def __init__(self, *, max_inflight: int = 2) -> None:
        import asyncio

        if max_inflight < 1:
            raise ExperimentError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._semaphore = asyncio.Semaphore(max_inflight)
        self._inflight = 0
        self._peak_inflight = 0

    async def call(self, fn: Callable, /, *args, **kwargs):
        """Run one blocking callable on a worker thread, bounded."""
        import asyncio

        async with self._semaphore:
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            try:
                return await asyncio.to_thread(fn, *args, **kwargs)
            finally:
                self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Dispatches currently executing on worker threads."""
        return self._inflight

    @property
    def peak_inflight(self) -> int:
        """High-water mark of concurrent dispatches."""
        return self._peak_inflight


# -- process-default pool ----------------------------------------------------

_default_pool = ExperimentPool(jobs=1, cache=RunCache())


def default_pool() -> ExperimentPool:
    """The pool every experiment builder submits its batch to."""
    return _default_pool


def configure_defaults(
    *,
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    use_cache: bool = True,
    retry: RetryPolicy | None = None,
) -> ExperimentPool:
    """Replace the process-default pool (CLI / benchmark harness hook).

    ``jobs=None`` keeps serial in-process execution; ``cache_dir=None``
    keeps the cache memory-only; ``use_cache=False`` disables caching
    entirely (every request simulates).  ``retry`` installs a
    non-default :class:`RetryPolicy` (the CLI's ``--retries`` /
    ``--timeout`` flags).
    """
    global _default_pool
    cache = RunCache(cache_dir) if use_cache else None
    _default_pool = ExperimentPool(jobs=jobs, cache=cache, retry=retry)
    return _default_pool
