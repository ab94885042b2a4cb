"""Failure model of the execution tier: retries, timeouts, poison jobs.

The campaigns this repo is growing toward (P-states × uncore × seeds ×
kernels of full runs, ROADMAP's million-run north star) only work if
the execution tier survives its own infrastructure: a worker process
killed by the OOM killer, a wedged worker that never returns, a request
whose execution always dies.  This module is the *vocabulary* of that
failure model — the policies and records — while the machinery that
applies them lives in :class:`~repro.experiments.parallel.ExperimentPool`:

:class:`RetryPolicy`
    How hard the pool fights for each request: bounded attempts, a
    per-job wall-clock timeout, and exponential backoff whose jitter is
    *seeded* (derived from the request key, which contains the run
    seed), so the retry schedule of a given run is reproducible — chaos
    runs are experiments too.

:class:`AttemptRecord` / :class:`FailedRun`
    The structured result of a request the pool gave up on.  A batch
    never raises for a poison job; it returns a :class:`FailedRun`
    carrying the full attempt history and the final exception chain, so
    averaging/fitting callers can exclude the failed seeds and report
    coverage instead of losing hours of completed work.

Failure kinds
-------------

``task_error``
    The simulation itself raised.  Deterministic by construction (same
    seed ⇒ same exception), so these are *not* retried unless
    :attr:`RetryPolicy.retry_task_errors` is set; they quarantine on
    the first attempt by default.

``worker_crash``
    The worker process died (``BrokenProcessPool``): SIGKILL, OOM,
    segfault.  Every request in flight on the broken pool is charged
    one crash attempt (the pool cannot know which request was on the
    dead worker) and resubmitted to a fresh pool.

``timeout``
    The request exceeded :attr:`RetryPolicy.timeout_s` of wall clock.
    A running worker cannot be cancelled cooperatively, so the pool is
    killed and respawned; only the overdue request is charged the
    attempt — innocent bystanders are resubmitted free of charge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import ExperimentError

__all__ = [
    "AttemptRecord",
    "FailedRun",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry/timeout/backoff behaviour of one experiment pool.

    The defaults are conservative: three attempts for infrastructure
    failures, no per-job timeout (simulated runs are usually seconds),
    task errors quarantined immediately.  The backoff schedule is a
    pure function of ``(policy seed, request key, attempt)`` — no wall
    clock, no shared RNG — so two executions of the same run produce
    identical retry schedules.
    """

    #: total attempts per request before it is quarantined.
    max_attempts: int = 3
    #: also burn retry attempts on exceptions raised *inside* the
    #: simulation.  Off by default: the simulation is deterministic, so
    #: a task error fails identically on every retry.
    retry_task_errors: bool = False
    #: per-job wall-clock limit in seconds (None = unlimited).  Only
    #: enforceable when requests execute in worker processes — the
    #: in-process serial path cannot interrupt itself.
    timeout_s: float | None = None
    #: first retry delay; attempt ``n`` waits ``base * factor**(n-1)``.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    #: fractional jitter: the delay is scaled by a deterministic factor
    #: in ``[1 - jitter, 1 + jitter)`` derived from the request key.
    jitter: float = 0.25
    #: salt for the jitter derivation (lets two pools retry the same
    #: keys on decorrelated schedules).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExperimentError("timeout_s must be positive (or None)")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ExperimentError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ExperimentError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ExperimentError("jitter must be within [0, 1]")

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before retry number ``attempt`` (the first retry is 1).

        Exponential in the attempt number, capped at
        :attr:`backoff_max_s`, jittered deterministically from the
        request key — so a batch of failed requests does not retry in
        lockstep, yet the same run always retries on the same schedule.
        """
        if attempt < 1:
            raise ExperimentError("backoff attempts count from 1")
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if base <= 0.0 or self.jitter <= 0.0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def attempts_for(self, kind: str) -> int:
        """Attempt budget for a failure kind (see module docstring)."""
        if kind == "task_error" and not self.retry_task_errors:
            return 1
        return self.max_attempts


#: The pool default: bounded infrastructure retries, no timeout.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class AttemptRecord:
    """One failed attempt at executing a request."""

    #: 1-based attempt number.
    attempt: int
    #: ``task_error`` | ``worker_crash`` | ``timeout``.
    kind: str
    #: ``repr`` of the exception (empty for timeouts).
    error: str = ""
    #: backoff that was scheduled *after* this attempt (0 for the last).
    backoff_s: float = 0.0

    def to_dict(self) -> dict:
        """JSON-friendly view (journal/telemetry payloads)."""
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "error": self.error,
            "backoff_s": self.backoff_s,
        }


@dataclass(frozen=True)
class FailedRun:
    """A request the pool quarantined instead of raising.

    Takes the position of a :class:`~repro.sim.result.RunResult` in a
    batch's result tuple.  Callers that reduce over batches filter with
    ``isinstance(r, FailedRun)`` (or the :attr:`ok` flag) and report
    coverage; the attempt history and exception chain ride along for
    diagnosis and for the campaign journal.
    """

    key: str
    workload: str
    seed: int
    attempts: tuple[AttemptRecord, ...]

    ok = False

    @property
    def error_kind(self) -> str:
        """Failure kind of the final attempt."""
        return self.attempts[-1].kind if self.attempts else "unknown"

    @property
    def error(self) -> str:
        """Exception repr of the final attempt (empty for timeouts)."""
        return self.attempts[-1].error if self.attempts else ""

    @property
    def n_attempts(self) -> int:
        """How many times the pool tried before giving up."""
        return len(self.attempts)

    def describe(self) -> str:
        """One-line human summary for warnings and CLI output."""
        detail = self.error or self.error_kind
        return (
            f"{self.workload} seed {self.seed}: quarantined after "
            f"{self.n_attempts} attempt(s) ({detail})"
        )

