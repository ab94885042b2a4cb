"""Deterministic fault injection for the simulated node stack.

The paper's premise is unattended production operation, and production
nodes misbehave: the Node Manager energy counter occasionally stops
latching or drops to zero mid-job, RAPL's 32-bit counters wrap every
~22 minutes at 200 W (shorter than several of the paper's application
runs), performance-counter reads return garbage after an SMM excursion,
MSR writes fail transiently, and thermal events clamp the sustained
core clock below the programmed target.  This module models all five
fault channels behind one seeded, picklable :class:`FaultPlan`, so a
hostile node is just another reproducible experiment configuration.

Layering
--------

:class:`FaultPlan`
    A frozen description of fault *rates* (plus a seed).  Because it is
    a plain compare-by-field dataclass it participates directly in the
    run cache's content hash — a cached clean run can never be returned
    for a faulted request and vice versa.

:class:`FaultInjector`
    One per node per run.  Owns its own ``numpy`` generator seeded from
    ``(plan.seed, run seed, node id)``, so two executions of the same
    request inject the identical fault schedule, independent of the
    engine's noise RNG (the clean-path iteration noise stream is never
    perturbed).  Every injected event is recorded in the shared
    :class:`HealthMonitor` ledger.

:class:`HealthMonitor` / :class:`NodeHealth`
    The mutable per-node tally shared by the injector, EARD and EARL
    during a run, and its frozen end-of-run snapshot attached to
    :class:`~repro.sim.result.NodeResult`.  The counters split into
    what was *injected* (the schedule) and how the runtime *reacted*
    (rejections, retries, watchdog restores, time in degraded mode), so
    tests can check the two sides against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..errors import ExperimentError, TransientMsrError
from ..telemetry.recorder import NULL_RECORDER, Recorder
from ..workloads.phase import IterationCounters

__all__ = ["FaultPlan", "FaultInjector", "HealthMonitor", "NodeHealth"]

#: Raw-tick jump of one RAPL wrap-storm event: just under a full wrap,
#: so a naive raw-sum reader goes backwards while the wrap-aware delta
#: reader absorbs it as one bounded (spurious) increment.
_WRAP_STORM_TICKS = (1 << 32) - (1 << 20)

_RATE_FIELDS = (
    "meter_stall_rate",
    "meter_dropout_rate",
    "counter_corruption_rate",
    "msr_failure_rate",
    "rapl_wrap_rate",
    "throttle_rate",
)

#: Infrastructure (control-plane) channels: they perturb the *cluster*
#: — node crashes, daemon restarts — never the physics of a single
#: job's run, so they are ``compare=False`` and invisible to the run
#: cache's content hash.
_INFRA_RATE_FIELDS = (
    "node_crash_rate",
    "eardbd_restart_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the fault regime of one run.

    All rates are per-opportunity Bernoulli probabilities: meter faults
    per energy read, counter corruption / wrap storms / throttle onsets
    per application iteration, MSR faults per privileged write batch.
    The all-zero default plan is inert — the engine skips the injector
    entirely, keeping the clean path bit-identical to no plan at all.
    """

    seed: int = 0
    #: probability per DC-energy read that the meter enters a stall
    #: (returns the stale latched value for ``meter_stall_reads`` reads).
    meter_stall_rate: float = 0.0
    meter_stall_reads: int = 4
    #: probability per DC-energy read of a dropout (counter reads zero).
    meter_dropout_rate: float = 0.0
    #: probability per iteration that EARL's counter sample is corrupted
    #: (NaN / zeroed / outlier CPI·GB/s — chosen uniformly).
    counter_corruption_rate: float = 0.0
    #: probability per privileged MSR write batch of a transient failure
    #: burst of 1..``msr_failure_burst`` consecutive attempts.
    msr_failure_rate: float = 0.0
    msr_failure_burst: int = 2
    #: probability per iteration of a RAPL wrap storm (phantom near-wrap
    #: jump of every package counter's raw value).
    rapl_wrap_rate: float = 0.0
    #: probability per iteration that a thermal-throttle clamp begins.
    throttle_rate: float = 0.0
    throttle_duration_s: float = 8.0
    throttle_ghz: float = 1.6
    # -- infrastructure (control-plane) channels ------------------------------
    # All compare=False: they drive the cluster control plane (node
    # crashes, daemon restarts), not the per-job physics, so a plan
    # carrying only infra rates canonicalises like no plan at all and
    # the run-cache key shape is unchanged (no CACHE_FORMAT_VERSION
    # bump needed).
    #: probability per node-second (approximated per job-node) that a
    #: node crashes mid-job in the cluster simulation.
    node_crash_rate: float = field(default=0.0, compare=False)
    #: how long a crashed node stays down before rejoining the free pool.
    node_reboot_s: float = field(default=120.0, compare=False)
    #: how many times the cluster requeues a crash-killed job before
    #: recording it as failed.
    job_max_retries: int = field(default=2, compare=False)
    #: probability per flush tick that the EARDBD daemon restarts
    #: (buffered reports replayed from its WAL, the flush skipped).
    eardbd_restart_rate: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS + _INFRA_RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ExperimentError(f"{name}={rate} outside [0, 1]")
        if self.meter_stall_reads < 1:
            raise ExperimentError("meter_stall_reads must be >= 1")
        if self.msr_failure_burst < 1:
            raise ExperimentError("msr_failure_burst must be >= 1")
        if self.throttle_duration_s <= 0:
            raise ExperimentError("throttle_duration_s must be positive")
        if self.throttle_ghz <= 0:
            raise ExperimentError("throttle_ghz must be positive")
        if self.node_reboot_s <= 0:
            raise ExperimentError("node_reboot_s must be positive")
        if self.job_max_retries < 0:
            raise ExperimentError("job_max_retries cannot be negative")

    @property
    def enabled(self) -> bool:
        """True when any *hardware* fault channel can fire.

        Deliberately excludes the infrastructure channels: the per-job
        engine consults ``enabled`` to decide whether to build an
        injector, and infra faults never reach the engine.
        """
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    @property
    def infra_enabled(self) -> bool:
        """True when any control-plane (cluster) channel can fire."""
        return any(getattr(self, name) > 0.0 for name in _INFRA_RATE_FIELDS)

    def scaled(self, factor: float) -> "FaultPlan":
        """Copy with every rate multiplied by ``factor`` (clamped to 1).

        Scales the hardware and the infrastructure rates alike, so a
        resilience sweep turns one reference plan's intensity knob for
        both domains.
        """
        if factor < 0:
            raise ExperimentError("fault scale factor cannot be negative")
        return replace(
            self,
            **{
                name: min(1.0, getattr(self, name) * factor)
                for name in _RATE_FIELDS + _INFRA_RATE_FIELDS
            },
        )

    def at_intensity(self, intensity: float) -> "FaultPlan | None":
        """This plan as the regime of one sweep intensity.

        ``None`` (a clean run, no injector at all) at intensity 0, else
        :meth:`scaled`, which rejects a negative intensity.
        """
        return None if intensity == 0 else self.scaled(intensity)


# -- health accounting --------------------------------------------------------


@dataclass(frozen=True)
class NodeHealth:
    """End-of-run robustness record of one node.

    The first block counts what the injector *did*; the second how the
    hardened runtime *reacted*.  ``degraded_s`` is the simulated time
    the node spent running policy-default frequencies because the
    watchdog fired or the policy was disabled.
    """

    # injected schedule
    meter_stalls: int = 0
    meter_dropouts: int = 0
    counter_corruptions: int = 0
    msr_failures_injected: int = 0
    rapl_wrap_storms: int = 0
    throttle_events: int = 0
    # runtime reactions
    samples_rejected: int = 0
    windows_rejected: int = 0
    windows_stalled: int = 0
    msr_retries: int = 0
    msr_apply_failures: int = 0
    policy_failures: int = 0
    watchdog_restores: int = 0
    degraded_s: float = 0.0

    @property
    def faults_injected(self) -> int:
        """Total fault events scheduled by the injector."""
        return (
            self.meter_stalls
            + self.meter_dropouts
            + self.counter_corruptions
            + self.msr_failures_injected
            + self.rapl_wrap_storms
            + self.throttle_events
        )

    @property
    def clean(self) -> bool:
        """True when nothing was injected and nothing was rejected."""
        return all(
            getattr(self, f.name) == 0 for f in fields(self)
        )

    @classmethod
    def merge(cls, healths: "list[NodeHealth] | tuple[NodeHealth, ...]") -> "NodeHealth":
        """Element-wise sum over nodes (job-level view)."""
        if not healths:
            return cls()
        return cls(
            **{
                f.name: sum(getattr(h, f.name) for h in healths)
                for f in fields(cls)
            }
        )


class HealthMonitor:
    """Mutable per-node tally shared by injector, EARD and EARL."""

    def __init__(self) -> None:
        self.meter_stalls = 0
        self.meter_dropouts = 0
        self.counter_corruptions = 0
        self.msr_failures_injected = 0
        self.rapl_wrap_storms = 0
        self.throttle_events = 0
        self.samples_rejected = 0
        self.windows_rejected = 0
        self.windows_stalled = 0
        self.msr_retries = 0
        self.msr_apply_failures = 0
        self.policy_failures = 0
        self.watchdog_restores = 0
        self.degraded_s = 0.0
        self._degraded_since: float | None = None

    # -- degraded-mode span tracking ------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the node is in watchdog-degraded mode."""
        return self._degraded_since is not None

    def enter_degraded(self, at_s: float) -> None:
        """Mark the node degraded from the given simulated time."""
        if self._degraded_since is None:
            self._degraded_since = at_s

    def exit_degraded(self, at_s: float) -> None:
        """Leave degraded mode, accumulating the degraded interval."""
        if self._degraded_since is not None:
            self.degraded_s += max(0.0, at_s - self._degraded_since)
            self._degraded_since = None

    def finish(self, at_s: float) -> None:
        """Close any open degraded span at the end of the run."""
        self.exit_degraded(at_s)

    def snapshot(self) -> NodeHealth:
        """Freeze the health tallies into a NodeHealth record."""
        return NodeHealth(
            **{f.name: getattr(self, f.name) for f in fields(NodeHealth)}
        )


# -- the injector -------------------------------------------------------------


class FaultInjector:
    """Executes one node's share of a :class:`FaultPlan`.

    Deterministic: the schedule depends only on ``(plan.seed, run_seed,
    node_id)`` and the (deterministic) sequence of hook calls, never on
    wall clock or the engine's noise RNG.  Hooks are cheap no-draw
    passthroughs for channels whose rate is zero, so a plan exercising
    one channel leaves the others' statistics untouched.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        run_seed: int,
        node_id: int,
        health: HealthMonitor,
        telemetry: Recorder = NULL_RECORDER,
    ) -> None:
        self.plan = plan
        self.health = health
        #: event sink; never consulted for randomness, so arming it
        #: cannot perturb the fault schedule.
        self.telemetry = telemetry
        self._rng = np.random.default_rng(
            np.random.SeedSequence([plan.seed & 0xFFFFFFFF, run_seed & 0xFFFFFFFF, node_id])
        )
        self._stalled_reads_left = 0
        self._stale_reading = None
        self._msr_burst_left = 0
        self._throttle_until_s = -1.0

    # -- engine hooks (per iteration) ------------------------------------------

    def on_iteration_start(self, node) -> None:
        """Draw the per-iteration events: wrap storms and throttle onsets."""
        plan = self.plan
        if plan.rapl_wrap_rate > 0 and self._rng.random() < plan.rapl_wrap_rate:
            self.health.rapl_wrap_storms += 1
            if self.telemetry.enabled:
                self.telemetry.event("faults", "rapl_wrap_storm")
            for counter in node.rapl.pck:
                counter.inject_raw_jump(_WRAP_STORM_TICKS)
        if (
            plan.throttle_rate > 0
            and node.elapsed_s >= self._throttle_until_s
            and self._rng.random() < plan.throttle_rate
        ):
            self.health.throttle_events += 1
            self._throttle_until_s = node.elapsed_s + plan.throttle_duration_s
            if self.telemetry.enabled:
                self.telemetry.event(
                    "faults",
                    "throttle_start",
                    until_s=self._throttle_until_s,
                    clamp_ghz=plan.throttle_ghz,
                )

    def throttle_clamp_ghz(self, now_s: float) -> float | None:
        """Active thermal clamp for the iteration starting at ``now_s``."""
        if now_s < self._throttle_until_s:
            return self.plan.throttle_ghz
        return None

    def corrupt_counters(self, counters: IterationCounters) -> IterationCounters:
        """Possibly corrupt the counter sample EARL is about to see.

        Ground truth (the engine's own banks, the energy integrators) is
        never touched — this models a bad *read*, not bad silicon.
        """
        plan = self.plan
        if plan.counter_corruption_rate <= 0:
            return counters
        if self._rng.random() >= plan.counter_corruption_rate:
            return counters
        self.health.counter_corruptions += 1
        mode = int(self._rng.integers(0, 3))
        if self.telemetry.enabled:
            self.telemetry.event("faults", "counter_corruption", mode=mode)
        if mode == 0:  # NaN burst: the PAPI read returned garbage
            return replace(counters, instructions=float("nan"), cycles=float("nan"))
        if mode == 1:  # zeroed sample: counters reset under us
            return replace(counters, instructions=0.0, cycles=0.0, avx512_instructions=0.0)
        # outlier: impossible CPI / GB/s spike
        factor = float(self._rng.uniform(200.0, 2000.0))
        return replace(
            counters,
            cycles=counters.cycles * factor,
            bytes_transferred=counters.bytes_transferred * factor,
        )

    # -- sensor hooks (called by EARD) ----------------------------------------

    def filter_energy_reading(self, reading):
        """Possibly stall or drop the Node Manager energy reading."""
        plan = self.plan
        if self._stalled_reads_left > 0:
            self._stalled_reads_left -= 1
            return self._stale_reading if self._stale_reading is not None else reading
        if plan.meter_stall_rate > 0 and self._rng.random() < plan.meter_stall_rate:
            self.health.meter_stalls += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "faults", "meter_stall", reads=plan.meter_stall_reads
                )
            self._stalled_reads_left = plan.meter_stall_reads - 1
            self._stale_reading = reading
            return reading
        if plan.meter_dropout_rate > 0 and self._rng.random() < plan.meter_dropout_rate:
            self.health.meter_dropouts += 1
            if self.telemetry.enabled:
                self.telemetry.event("faults", "meter_dropout")
            return type(reading)(joules=0.0, timestamp_s=reading.timestamp_s)
        self._stale_reading = reading
        return reading

    # -- MSR hooks (called by EARD) -------------------------------------------

    def check_msr_write(self) -> None:
        """Raise :class:`TransientMsrError` when a write attempt fails.

        Failures arrive in bursts of 1..``msr_failure_burst`` attempts,
        so a retry loop deeper than the burst always recovers.
        """
        plan = self.plan
        if self._msr_burst_left > 0:
            self._msr_burst_left -= 1
            self.health.msr_failures_injected += 1
            if self.telemetry.enabled:
                self.telemetry.event("faults", "msr_failure")
            raise TransientMsrError("injected transient MSR write failure")
        if plan.msr_failure_rate > 0 and self._rng.random() < plan.msr_failure_rate:
            self._msr_burst_left = int(self._rng.integers(1, plan.msr_failure_burst + 1)) - 1
            self.health.msr_failures_injected += 1
            if self.telemetry.enabled:
                self.telemetry.event("faults", "msr_failure")
            raise TransientMsrError("injected transient MSR write failure")
