"""The cluster simulation: node pool, scheduler, EARGM actuation.

One :class:`ClusterSimulation` replays a job trace against a node pool
under EAR's three services at once:

* **optimisation** — every job executes through the per-job simulation
  engine (via the cache-aware
  :class:`~repro.experiments.parallel.ExperimentPool`, so repeated
  (workload, config, seed) jobs re-use cached physics);
* **accounting** — per-node outcomes flow through the
  :class:`~repro.cluster.eardbd.Eardbd` aggregation tier into the
  shared :class:`~repro.ear.accounting.AccountingDB`;
* **control** — the :class:`~repro.ear.eargm.Eargm` budget loop is
  driven by the *event clock* (wall-clock deltas between completions,
  not summed job times), and its P-state cap is folded into the
  configuration of every job scheduled after a level change.

Scheduling is FCFS with conservative backfill: a queued job may jump
ahead only if, under the walltime *estimates*, it delays the
reservation of no job ahead of it.  Reservations are carved into a
free-node step function in queue order, which is exactly the
conservative variant (EASY backfill would reserve for the head job
only).

Everything is deterministic: the trace is seeded, tie-breaking in the
event queue is explicit, batches are submitted to the pool in queue
order and merged in submission order — the same trace seed yields the
identical schedule, accounting records and telemetry stream, with 1 or
N worker processes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..ear.accounting import AccountingDB, node_job_records
from ..ear.config import EarConfig
from ..ear.eargm import Eargm, EargmConfig, WarningLevel
from ..errors import ConfigError, ExperimentError
from ..experiments.retry import FailedRun
from ..sim.faults import FaultPlan
from ..sim.result import RunResult
from ..telemetry.recorder import NULL_RECORDER, EventRecorder, NodeTelemetry, Recorder
from ..hw.units import ratio_to_ghz
from .eardbd import Eardbd, EardbdConfig, EardbdStats, NodeReport
from .events import EventKind, EventQueue, SimClock
from .market import Grant, MarketConfig, MarketStats, PowerMarket
from .pool import NodePool
from .traces import TraceJob

__all__ = [
    "ClusterConfig",
    "JobFailure",
    "JobOutcome",
    "ClusterReport",
    "ClusterSimulation",
]

#: Salt mixed into the infra RNG seed so the control-plane fault stream
#: is decorrelated from every per-node hardware injector stream.
_INFRA_SEED_SALT = 0xC1A5


@dataclass(frozen=True)
class ClusterConfig:
    """One campaign's cluster-side settings."""

    n_nodes: int = 8
    #: EAR configuration applied to every job (None = monitoring only:
    #: no EARL on the nodes, hence no policy and no cap actuation).
    ear_config: EarConfig | None = None
    #: energy-control service; None runs without a budget.
    eargm: EargmConfig | None = None
    eardbd: EardbdConfig = field(default_factory=EardbdConfig)
    #: conservative backfill on top of FCFS (off = pure FCFS).
    backfill: bool = True
    #: fault regime applied to every job's nodes (PR-2 fault plans);
    #: each job's injectors are seeded per (plan, job seed, node).
    fault_plan: FaultPlan | None = None
    #: record the cluster-scope telemetry stream (job_submit/start/end,
    #: eardbd_flush/drop, eargm_cap).
    telemetry: bool = False
    #: heterogeneous pool layout: ordered (generation, count) pairs
    #: naming :data:`repro.cluster.pool.GENERATIONS` entries.  None is
    #: the homogeneous cluster: one generation over all ``n_nodes``
    #: that keeps every job on its workload's own node type.
    node_mix: tuple[tuple[str, int], ...] | None = None
    #: arm per-node telemetry inside every job's simulation engine (the
    #: mixed-cluster runs use it to surface per-die limit_write events).
    job_telemetry: bool = False
    #: EARGM power-cap market (see :mod:`repro.cluster.market`); None
    #: runs without one.  Monitoring-only campaigns (``ear_config is
    #: None``) never actuate caps — there is no EARL on the nodes to
    #: comply — so the market leaves them untouched.
    market: MarketConfig | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("a cluster needs at least one node")
        if self.node_mix is not None:
            total = sum(count for _, count in self.node_mix)
            if total != self.n_nodes:
                raise ConfigError(
                    f"node mix totals {total} nodes but n_nodes is {self.n_nodes}"
                )


@dataclass(frozen=True)
class JobOutcome:
    """One scheduled job, start to finish."""

    index: int
    job_id: int
    workload: str
    n_nodes: int
    submit_s: float
    start_s: float
    end_s: float
    #: cluster node ids the job ran on.
    placement: tuple[int, ...]
    #: True when the job jumped the FCFS queue via backfill.
    backfilled: bool
    level_at_start: WarningLevel
    pstate_offset: int
    dc_energy_j: float
    avg_cpu_freq_ghz: float
    avg_imc_freq_ghz: float
    #: power-market grant at claim time (None without a market).
    granted_w: float | None = None
    #: uncore ladder steps the market asked this job to descend.
    market_imc_steps: int = 0
    #: CPU P-state offset the market added on top of EARGM's.
    market_pstate_offset: int = 0

    @property
    def wait_s(self) -> float:
        """Queue wait: start time minus submission time."""
        return self.start_s - self.submit_s

    @property
    def run_s(self) -> float:
        """Execution time: end time minus start time."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class JobFailure:
    """One job attempt the cluster gave up on.

    Either a node crash consumed the job's retry budget
    (``node_id >= 0``: the node that died under the final attempt), or
    the experiment pool quarantined the job's run as a poison job
    (``node_id == -1``).
    """

    index: int
    job_id: int
    workload: str
    n_nodes: int
    submit_s: float
    start_s: float
    fail_s: float
    #: crashed cluster node id, or -1 for a pool-quarantined run.
    node_id: int
    #: 1-based attempt number that failed terminally.
    attempt: int


@dataclass(frozen=True)
class ClusterReport:
    """What one campaign did, cluster-wide."""

    n_nodes: int
    policy: str
    jobs: tuple[JobOutcome, ...]
    makespan_s: float
    total_energy_j: float
    #: busy node-seconds / (n_nodes * makespan).
    utilisation: float
    mean_wait_s: float
    max_wait_s: float
    n_backfilled: int
    eardbd: EardbdStats
    #: budget bookkeeping (None without an EARGM).
    budget_j: float | None = None
    consumed_j: float | None = None
    final_level: WarningLevel | None = None
    #: number of cap (offset) changes EARGM actuated during the run.
    cap_changes: int = 0
    #: cluster-scope telemetry snapshot (node -1), if recorded.
    telemetry: NodeTelemetry | None = None
    #: jobs that terminally failed (crash retry budget exhausted or
    #: pool-quarantined); empty on the clean path.
    failures: tuple[JobFailure, ...] = ()
    #: crash-killed job attempts that were requeued.
    n_requeues: int = 0
    #: node-crash events injected by the infra fault channel.
    n_node_failures: int = 0
    #: power-market summary (None without a market).
    market: MarketStats | None = None

    @property
    def n_jobs(self) -> int:
        """Number of jobs in the trace."""
        return len(self.jobs)

    def to_dict(self) -> dict:
        """JSON-friendly summary (per-job rows included)."""
        return {
            "n_nodes": self.n_nodes,
            "policy": self.policy,
            "n_jobs": self.n_jobs,
            "makespan_s": self.makespan_s,
            "total_energy_j": self.total_energy_j,
            "utilisation": self.utilisation,
            "mean_wait_s": self.mean_wait_s,
            "max_wait_s": self.max_wait_s,
            "n_backfilled": self.n_backfilled,
            "eardbd": asdict(self.eardbd),
            "n_requeues": self.n_requeues,
            "n_node_failures": self.n_node_failures,
            "failures": [asdict(f) for f in self.failures],
            "budget_j": self.budget_j,
            "consumed_j": self.consumed_j,
            "final_level": self.final_level.name if self.final_level else None,
            "cap_changes": self.cap_changes,
            "market": self.market.to_dict() if self.market else None,
            "jobs": [
                {
                    "index": j.index,
                    "job_id": j.job_id,
                    "workload": j.workload,
                    "n_nodes": j.n_nodes,
                    "submit_s": j.submit_s,
                    "start_s": j.start_s,
                    "end_s": j.end_s,
                    "wait_s": j.wait_s,
                    "placement": list(j.placement),
                    "backfilled": j.backfilled,
                    "level_at_start": j.level_at_start.name,
                    "pstate_offset": j.pstate_offset,
                    "dc_energy_j": j.dc_energy_j,
                    "avg_cpu_freq_ghz": j.avg_cpu_freq_ghz,
                    "avg_imc_freq_ghz": j.avg_imc_freq_ghz,
                    "granted_w": j.granted_w,
                    "market_imc_steps": j.market_imc_steps,
                    "market_pstate_offset": j.market_pstate_offset,
                }
                for j in self.jobs
            ],
        }


# -- internal bookkeeping -----------------------------------------------------


@dataclass
class _Starting:
    job: TraceJob
    job_id: int
    placement: tuple[int, ...]
    level: WarningLevel
    offset: int
    config: EarConfig | None
    backfilled: bool
    #: the power-market grant this job was claimed under, if any.
    grant: Grant | None = None


@dataclass
class _Running:
    start: _Starting
    start_s: float
    end_s: float
    result: RunResult
    #: set when a scheduled NODE_FAIL will kill this attempt before its
    #: JOB_FINISH event; the finish handler ignores killed attempts.
    killed: bool = False


class _FreeProfile:
    """Free-node count over future time, for reservation carving.

    A step function represented as breakpoints ``(time, avail)``, sorted
    and more than 1e-12 apart; the last value extends to infinity.
    ``earliest_fit`` finds the first breakpoint from which a demand fits
    for a duration; ``reserve`` carves it out.  A time within 1e-12 of a
    breakpoint is that breakpoint: reservations ending at ``0.1 + 0.2``
    and at ``0.3`` release their nodes on one step, not on two, so the
    last step holds every node and a job no wider than the pool always
    fits.  A fit bisects each window and reads every level at most once,
    O(B log B) over B breakpoints; a reservation costs O(B).
    """

    def __init__(self, now: float, avail: int, releases: list[tuple[float, int]]):
        # past releases fold into the step at ``now``.
        self._times = [now]
        self._avail = [avail]
        for t, n in sorted(releases):
            if self._times[-1] < t - 1e-12:
                self._times.append(t)
                self._avail.append(self._avail[-1])
            self._avail[-1] += n

    def _breakpoint(self, t: float) -> int:
        """Index of the breakpoint at ``t``, inserted unless one lies
        within 1e-12 of it."""
        times = self._times
        idx = bisect_left(times, t - 1e-12)
        if idx == len(times) or times[idx] > t + 1e-12:
            times.insert(idx, t)
            self._avail.insert(idx, self._avail[idx - 1] if idx > 0 else 0)
        return idx

    def earliest_fit(self, need: int, duration: float) -> float:
        # candidate starts are profile breakpoints only: on a carved
        # (non-monotonic) profile that can be slightly pessimistic, but
        # never lets a backfill delay an earlier reservation.
        times, avail = self._times, self._avail
        # start k's window is breakpoints [k, end); both edges only move
        # right, so levels are scanned once, remembering the last one too
        # low: every window still holding it fails.
        scanned, short = 0, -1
        for k, start in enumerate(times):
            if k <= short:
                continue
            end = max(bisect_left(times, start + duration - 1e-12), k + 1)
            for i in range(max(scanned, k), end):
                if avail[i] < need:
                    short = i
            scanned = end
            if short < k:
                return start
        raise ExperimentError("reservation does not fit on any horizon")

    def reserve(self, start: float, duration: float, need: int) -> None:
        first = self._breakpoint(start)
        for i in range(first, self._breakpoint(start + duration)):
            self._avail[i] -= need


# -- the simulation -----------------------------------------------------------


class ClusterSimulation:
    """Replay one trace on one cluster configuration.

    One event loop, one driving API.  The trace passed at construction
    is the set of jobs submitted up front; :meth:`submit_job` admits
    more while the loop is live, :meth:`step`/:meth:`drain_events`
    advance it incrementally, and :meth:`harvest_outcomes`/
    :meth:`harvest_failures` drain finished work so a long-lived driver
    (the service tier, which starts from an empty trace) keeps memory
    bounded.  Aggregate statistics survive harvesting, so
    :meth:`finalize` still reports totals over everything the
    simulation ever ran.  :meth:`run` is the batch campaign: it drives
    the loop to completion over a non-empty trace and returns the
    report.
    """

    def __init__(
        self,
        trace: tuple[TraceJob, ...],
        config: ClusterConfig,
        *,
        pool=None,
        accounting: AccountingDB | None = None,
    ) -> None:
        from ..experiments.parallel import default_pool

        self.config = config
        #: generation layout; a homogeneous cluster is one generation.
        self.node_pool = (
            NodePool(config.node_mix)
            if config.node_mix is not None
            else NodePool.homogeneous(config.n_nodes)
        )
        for job in trace:
            self._check_job_fits(job)
        self.trace = tuple(trace)
        self.pool = pool if pool is not None else default_pool()
        self.accounting = accounting if accounting is not None else AccountingDB()
        self.clock = SimClock()
        self.telemetry: Recorder = (
            EventRecorder(node=-1, clock=lambda: self.clock.now)
            if config.telemetry
            else NULL_RECORDER
        )
        self.eargm = (
            Eargm(config.eargm, telemetry=self.telemetry)
            if config.eargm is not None
            else None
        )
        self.eardbd = Eardbd(self.accounting, config.eardbd, telemetry=self.telemetry)
        self.market = (
            PowerMarket(config.market, telemetry=self.telemetry)
            if config.market is not None
            else None
        )
        self._events = EventQueue()
        self._queue: deque[TraceJob] = deque()
        self._free: set[int] = set(range(config.n_nodes))
        self._running: dict[int, _Running] = {}
        self._unarrived = 0
        self._last_eargm_report_s = 0.0
        self._last_offset = 0
        self._cap_changes = 0
        self._outcomes: list[JobOutcome] = []
        self._makespan_s = 0.0
        self._ran = False
        self._started = False
        self._finalized = False
        self._flush_armed = False
        # aggregates over *harvested* (drained) outcomes/failures, so
        # finalize() reports totals even after streaming drivers pull
        # finished work out of memory.  All start at additive/ordering
        # identities, keeping the batch path bit-identical.
        self._h_energy_j = 0.0
        self._h_busy_node_s = 0.0
        self._h_wait_sum_s = 0.0
        self._h_wait_max_s = 0.0
        self._h_jobs = 0
        self._h_backfilled = 0
        self._h_failures = 0
        # -- control-plane fault channel state (inert without a plan
        # carrying infra rates: no RNG is built, no draws happen, the
        # clean path stays bit-identical) --------------------------------
        plan = config.fault_plan
        self._infra_plan = plan if plan is not None and plan.infra_enabled else None
        self._infra_rng = (
            np.random.default_rng(
                np.random.SeedSequence([self._infra_plan.seed, _INFRA_SEED_SALT])
            )
            if self._infra_plan is not None
            else None
        )
        #: crashed node id -> absolute recovery time.
        self._rebooting: dict[int, float] = {}
        #: trace index -> crash-killed attempts so far.
        self._attempts: dict[int, int] = {}
        self._failures: list[JobFailure] = []
        self._n_requeues = 0
        self._n_node_failures = 0

    # -- public API ----------------------------------------------------------

    def run(self) -> ClusterReport:
        """Drive the event loop to completion; return the report."""
        if not self.trace:
            raise ConfigError("a campaign needs at least one job")
        if self._ran:
            raise ExperimentError("a ClusterSimulation runs once; build a fresh one")
        self._ran = True
        self.start()
        while self.step():
            pass
        return self.finalize()

    def start(self) -> None:
        """Prime the event loop: trace arrivals, then the first flush.

        Idempotent.  With an empty initial trace the EARDBD flush tick
        is armed lazily by the first :meth:`submit_job`, so an idle
        service does not advance the event clock while nothing runs.
        """
        if self._started:
            return
        self._started = True
        for job in self.trace:
            self._events.push(job.submit_s, EventKind.JOB_ARRIVAL, job)
            self._unarrived += 1
        if self.trace:
            self._push_flush(self.config.eardbd.flush_interval_s)

    def step(self) -> bool:
        """Process exactly one event; False once the queue is empty."""
        if not self._started:
            self.start()
        if not self._events:
            return False
        event = self._events.pop()
        self.clock.advance(event.time_s)
        if event.kind is EventKind.JOB_ARRIVAL:
            self._on_arrival(event.payload)
        elif event.kind is EventKind.JOB_FINISH:
            self._on_finish(event.payload)
        elif event.kind is EventKind.NODE_FAIL:
            self._on_node_fail(event.payload)
        elif event.kind is EventKind.NODE_RECOVER:
            self._on_node_recover(event.payload)
        else:
            self._on_flush()
        return True

    def drain_events(self) -> int:
        """Step until the event queue is empty; return events processed."""
        n = 0
        while self.step():
            n += 1
        return n

    def finalize(self) -> ClusterReport:
        """Flush the EARDBD residue and build the final report.

        Runs once; the simulation accepts no further work afterwards.
        """
        if self._finalized:
            raise ExperimentError("a ClusterSimulation finalizes once")
        self._finalized = True
        if self.eardbd.pending:
            # final drain so nothing reported is lost at shutdown.
            self.eardbd.flush(time_s=self._makespan_s)
        return self._report()

    # -- incremental API ------------------------------------------------------

    def submit_job(self, job: TraceJob) -> TraceJob:
        """Admit one job into a simulation that has not been finalized.

        A job whose ``submit_s`` lies in the simulation's past is
        admitted *now* (the event clock never runs backwards); the
        possibly re-timed job is returned.  Submissions that arrive
        before the clock passes their submit time replay exactly like a
        batch trace — same arrivals, same tie-breaking — which is what
        makes the service path bit-identical to the batch path.
        """
        if self._finalized:
            raise ExperimentError("cannot submit to a finalized simulation")
        self._check_job_fits(job)
        if not self._started:
            self.start()
        if job.submit_s < self.clock.now:
            job = replace(job, submit_s=self.clock.now)
        self._events.push(job.submit_s, EventKind.JOB_ARRIVAL, job)
        self._unarrived += 1
        if not self._flush_armed:
            self._push_flush(self.clock.now + self.config.eardbd.flush_interval_s)
        return job

    def harvest_outcomes(self) -> tuple[JobOutcome, ...]:
        """Drain finished jobs, folding them into the report aggregates.

        Streaming drivers call this after every pump cycle so a
        long-lived simulation holds O(in-flight) state instead of the
        whole history; :meth:`finalize` still reports exact totals.
        """
        out = tuple(self._outcomes)
        self._outcomes.clear()
        for j in out:
            self._h_energy_j += j.dc_energy_j
            self._h_busy_node_s += j.run_s * j.n_nodes
            self._h_wait_sum_s += j.wait_s
            self._h_wait_max_s = max(self._h_wait_max_s, j.wait_s)
            self._h_jobs += 1
            if j.backfilled:
                self._h_backfilled += 1
        return out

    def harvest_failures(self) -> tuple[JobFailure, ...]:
        """Drain terminal job failures (streaming counterpart of outcomes)."""
        out = tuple(self._failures)
        self._failures.clear()
        self._h_failures += len(out)
        return out

    def drain_telemetry_events(self) -> tuple:
        """Drain buffered cluster-scope telemetry events (bounded memory).

        Counters/gauges/timers stay cumulative on the recorder; only the
        per-event backlog is handed over, ready for an event ring.
        """
        if not self.telemetry.enabled:
            return ()
        events = tuple(self.telemetry.events)
        self.telemetry.events.clear()
        return events

    @property
    def n_running(self) -> int:
        """Jobs currently executing on nodes."""
        return len(self._running)

    @property
    def n_queued(self) -> int:
        """Jobs waiting in the FCFS queue."""
        return len(self._queue)

    @property
    def n_pending_events(self) -> int:
        """Events still in the queue (arrivals, finishes, flush ticks)."""
        return len(self._events)

    @property
    def jobs_completed(self) -> int:
        """Total jobs finished so far (harvested + still buffered)."""
        return self._h_jobs + len(self._outcomes)

    @property
    def jobs_failed(self) -> int:
        """Total jobs failed terminally so far (harvested + still buffered)."""
        return self._h_failures + len(self._failures)

    @property
    def total_energy_j(self) -> float:
        """Total data-centre energy of all finished jobs so far."""
        return self._h_energy_j + sum(j.dc_energy_j for j in self._outcomes)

    def _push_flush(self, at_s: float) -> None:
        self._events.push(at_s, EventKind.EARDBD_FLUSH)
        self._flush_armed = True

    def _check_job_fits(self, job: TraceJob) -> None:
        # an arrival or walltime at inf/NaN (either makes the sum
        # non-finite) would keep the flush tick re-arming forever.
        if not math.isfinite(job.submit_s + job.est_time_s):
            raise ConfigError(f"job {job.index} needs a finite submit_s and est_time_s")
        # a job must fit inside one generation: allocations never span
        # generations (one engine run models one node type).
        pool = self.node_pool
        if job.workload.n_nodes > pool.max_generation_size:
            where = (
                f"the cluster has {pool.total}"
                if len(pool.generations) == 1
                else f"the largest generation has {pool.max_generation_size} nodes"
            )
            raise ConfigError(
                f"job {job.index} ({job.workload.name}) needs "
                f"{job.workload.n_nodes} nodes; {where}"
            )

    # -- event handlers ------------------------------------------------------

    def _on_arrival(self, job: TraceJob) -> None:
        self._unarrived -= 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "cluster",
                "job_submit",
                index=job.index,
                workload=job.workload.name,
                n_nodes=job.workload.n_nodes,
            )
        self._queue.append(job)
        self._schedule_pass()

    def _on_finish(self, running: _Running) -> None:
        if running.killed:
            # a NODE_FAIL consumed this attempt before its scheduled
            # completion; the requeue/fail decision already happened.
            return
        now = self.clock.now
        start = running.start
        self._makespan_s = max(self._makespan_s, now)
        self._free.update(start.placement)
        del self._running[start.job_id]
        result = running.result
        if self.telemetry.enabled:
            self.telemetry.event(
                "cluster",
                "job_end",
                job_id=start.job_id,
                index=start.job.index,
                workload=start.job.workload.name,
                time_s_run=result.time_s,
                dc_energy_j=result.dc_energy_j,
            )
        self._report_accounting(running, now)
        self._report_eargm(result, now)
        if self.market is not None:
            # feed the measured node power back into the market's table
            # (the next bid for this workload uses it), then free the
            # job's watts for subsequent admissions.
            if result.time_s > 0:
                self.market.observe(
                    start.job.workload.name,
                    result.dc_energy_j / result.time_s / len(start.placement),
                )
            self.market.release(start.job_id)
        grant = start.grant
        self._outcomes.append(
            JobOutcome(
                index=start.job.index,
                job_id=start.job_id,
                workload=start.job.workload.name,
                n_nodes=start.job.workload.n_nodes,
                submit_s=start.job.submit_s,
                start_s=running.start_s,
                end_s=now,
                placement=start.placement,
                backfilled=start.backfilled,
                level_at_start=start.level,
                pstate_offset=start.offset,
                dc_energy_j=result.dc_energy_j,
                avg_cpu_freq_ghz=result.avg_cpu_freq_ghz,
                avg_imc_freq_ghz=result.avg_imc_freq_ghz,
                granted_w=grant.granted_w if grant is not None else None,
                market_imc_steps=grant.imc_steps if grant is not None else 0,
                market_pstate_offset=(
                    grant.pstate_offset if grant is not None else 0
                ),
            )
        )
        self._schedule_pass()

    def _on_node_fail(self, payload: tuple[_Running, int]) -> None:
        """A node died under a running job (infra fault channel).

        Surviving nodes free immediately; the victim reboots for
        ``node_reboot_s`` before rejoining the pool.  The killed
        attempt ships *nothing* to EARDBD/EARGM (its counters died with
        the node), so accounting reconciliation stays exact.  The job
        requeues at the head of the FCFS queue while its retry budget
        lasts, then is recorded as a terminal :class:`JobFailure`.
        """
        running, node_id = payload
        assert self._infra_plan is not None
        now = self.clock.now
        start = running.start
        running.killed = True
        del self._running[start.job_id]
        if self.market is not None:
            # the attempt's counters died with the node: release the
            # bid without feeding the power table.
            self.market.release(start.job_id)
        self._n_node_failures += 1
        self._makespan_s = max(self._makespan_s, now)
        self._free.update(n for n in start.placement if n != node_id)
        recover_at = now + self._infra_plan.node_reboot_s
        self._rebooting[node_id] = recover_at
        self._events.push(recover_at, EventKind.NODE_RECOVER, node_id)
        if self.telemetry.enabled:
            self.telemetry.event(
                "cluster",
                "node_fail",
                node_id=node_id,
                job_id=start.job_id,
                index=start.job.index,
                workload=start.job.workload.name,
                recover_s=recover_at,
            )
        attempt = self._attempts.get(start.job.index, 0) + 1
        self._attempts[start.job.index] = attempt
        if attempt <= self._infra_plan.job_max_retries:
            self._n_requeues += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "cluster",
                    "requeue",
                    index=start.job.index,
                    workload=start.job.workload.name,
                    attempt=attempt,
                )
            # head of the queue: a crash victim does not lose its FCFS
            # position to jobs that arrived after it started.
            self._queue.appendleft(start.job)
        else:
            self._failures.append(
                JobFailure(
                    index=start.job.index,
                    job_id=start.job_id,
                    workload=start.job.workload.name,
                    n_nodes=start.job.workload.n_nodes,
                    submit_s=start.job.submit_s,
                    start_s=running.start_s,
                    fail_s=now,
                    node_id=node_id,
                    attempt=attempt,
                )
            )
            if self.telemetry.enabled:
                self.telemetry.event(
                    "cluster",
                    "job_fail",
                    index=start.job.index,
                    workload=start.job.workload.name,
                    attempt=attempt,
                )
        self._schedule_pass()

    def _on_node_recover(self, node_id: int) -> None:
        """A crashed node finished rebooting; it can host jobs again."""
        self._rebooting.pop(node_id, None)
        self._free.add(node_id)
        if self.telemetry.enabled:
            self.telemetry.event("cluster", "node_recover", node_id=node_id)
        self._schedule_pass()

    def _on_flush(self) -> None:
        self._flush_armed = False
        restart = (
            self._infra_plan is not None
            and self._infra_plan.eardbd_restart_rate > 0.0
            and self._infra_rng.random() < self._infra_plan.eardbd_restart_rate
        )
        if restart:
            # the daemon was down this tick: buffered reports replay
            # from its WAL, the flush is skipped, nothing is lost.
            self.eardbd.restart(time_s=self.clock.now)
        else:
            self.eardbd.flush(time_s=self.clock.now)
        if self.market is not None:
            # the flush tick is the EARGM interval: snapshot the market
            # (the conservation record the report and tests check).
            self.market.tick(self.clock.now)
        if self._unarrived or self._queue or self._running:
            self._push_flush(self.clock.now + self.config.eardbd.flush_interval_s)

    # -- accounting + control ------------------------------------------------

    def _report_accounting(self, running: _Running, now: float) -> None:
        start = running.start
        cfg = start.config
        for local, record in enumerate(node_job_records(running.result)):
            self.eardbd.submit(
                NodeReport(
                    job_id=start.job_id,
                    workload=start.job.workload.name,
                    policy=cfg.policy if cfg is not None else "none",
                    cpu_policy_th=cfg.cpu_policy_th if cfg is not None else 0.0,
                    unc_policy_th=cfg.unc_policy_th if cfg is not None else 0.0,
                    node=replace(record, node_id=start.placement[local]),
                ),
                time_s=now,
            )

    def _report_eargm(self, result: RunResult, now: float) -> None:
        if self.eargm is None:
            return
        # wall-clock delta, not the job's own duration: concurrent jobs
        # burn budget faster than serial ones, which is exactly the
        # pace signal EARGM grades.
        delta = max(0.0, now - self._last_eargm_report_s)
        self._last_eargm_report_s = now
        self.eargm.report(result.dc_energy_j, delta)
        offset = self.eargm.recommended_max_pstate_offset()
        if offset != self._last_offset:
            self._cap_changes += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "eargm",
                    "cap",
                    level=self.eargm.level().name,
                    pstate_offset=offset,
                    previous_offset=self._last_offset,
                )
            self._last_offset = offset

    # -- scheduling ----------------------------------------------------------

    def _schedule_pass(self) -> None:
        now = self.clock.now
        starters: list[_Starting] = []
        while self._queue and self._fits_now(self._queue[0]):
            starters.append(self._claim(self._queue.popleft(), backfilled=False))
        if self._queue and self.config.backfill:
            starters.extend(self._backfill_pass(now, starters))
        if starters:
            self._launch(starters, now)

    def _fits_now(self, job: TraceJob) -> bool:
        """Can the job start immediately on some (single) generation?"""
        need = job.workload.n_nodes
        return any(
            self._free_in(gen) >= need for gen in self.node_pool.generations
        )

    def _free_in(self, generation: str) -> int:
        ids = self.node_pool.node_ids(generation)
        return sum(1 for n in self._free if n in ids)

    def _free_profiles(
        self, now: float, starting: list[_Starting]
    ) -> dict[str, _FreeProfile]:
        """One free-node profile per generation (allocations never span
        generations).  Running jobs release their nodes at their end;
        jobs starting now, with no measured duration yet, at their
        walltime estimate; crashed nodes at their recovery time."""
        pool = self.node_pool
        releases: dict[str, list[tuple[float, int]]] = {
            gen: [] for gen in pool.generations
        }
        for run in self._running.values():
            gen = pool.generation_of(run.start.placement[0])
            releases[gen].append((run.end_s, len(run.start.placement)))
        for s in starting:
            gen = pool.generation_of(s.placement[0])
            releases[gen].append((now + s.job.est_time_s, len(s.placement)))
        for node_id, recover_at in self._rebooting.items():
            releases[pool.generation_of(node_id)].append((recover_at, 1))
        return {
            gen: _FreeProfile(now, self._free_in(gen), releases[gen])
            for gen in pool.generations
        }

    def _backfill_pass(
        self, now: float, already_started: list[_Starting]
    ) -> list[_Starting]:
        """Conservative backfill: reserve for every queued job in order,
        each on the generation whose earliest fit is soonest (mix order
        breaking ties); start any whose reservation is *now* (it then
        delays nobody ahead of it by construction)."""
        pool = self.node_pool
        profiles = self._free_profiles(now, already_started)
        started: list[_Starting] = []
        remaining: deque[TraceJob] = deque()
        for job in self._queue:
            need = job.workload.n_nodes
            best_gen, best_at = None, float("inf")
            for gen in pool.generations:
                if need > len(pool.node_ids(gen)):
                    continue
                at = profiles[gen].earliest_fit(need, job.est_time_s)
                if at < best_at - 1e-12:
                    best_gen, best_at = gen, at
            assert best_gen is not None  # job width is pre-validated
            profiles[best_gen].reserve(best_at, job.est_time_s, need)
            if best_at <= now + 1e-12 and need <= self._free_in(best_gen):
                started.append(self._claim(job, backfilled=True, generation=best_gen))
            else:
                remaining.append(job)
        self._queue = remaining
        return started

    def _claim(
        self, job: TraceJob, *, backfilled: bool, generation: str | None = None
    ) -> _Starting:
        # take the requested generation, else the first in mix order
        # with capacity.  A generation with a node config retargets the
        # workload to its silicon, so the engine builds the right node
        # type and coefficient resolution sees the right (node, backend)
        # pair; a homogeneous cluster keeps the workload's own.
        pool = self.node_pool
        need = job.workload.n_nodes
        placement = None
        for gen in (generation,) if generation is not None else pool.generations:
            ids = pool.node_ids(gen)
            free = sorted(n for n in self._free if n in ids)
            if len(free) >= need:
                placement = tuple(free[:need])
                node_config = pool.config(gen)
                if node_config is not None:
                    job = replace(job, workload=job.workload.retargeted(node_config))
                break
        if placement is None:
            raise ExperimentError(f"no generation can host job {job.index} right now")
        self._free.difference_update(placement)
        if self.eargm is not None:
            level = self.eargm.level()
            offset = self.eargm.recommended_max_pstate_offset()
        else:
            level, offset = WarningLevel.OK, 0
        job_id = self.accounting.new_job_id()
        cfg = self.config.ear_config
        grant: Grant | None = None
        if cfg is not None:
            if self.market is not None:
                # the market's compliance ladder rides the same knobs
                # EARGM uses: an uncore cap folds into the config's
                # default IMC max, a residual P-state deficit folds
                # into the offset (the stricter of the two wins).
                grant = self.market.admit(
                    job_id, job.workload.name, job.workload.n_nodes
                )
                offset = max(offset, grant.pstate_offset)
                cfg = self._fold_grant(cfg, grant, job)
            cfg = replace(cfg, default_pstate_offset=offset)
        return _Starting(
            job=job,
            job_id=job_id,
            placement=placement,
            level=level,
            offset=offset,
            config=cfg,
            backfilled=backfilled,
            grant=grant,
        )

    def _fold_grant(
        self, cfg: EarConfig, grant: Grant, job: TraceJob
    ) -> EarConfig:
        """Translate a grant's uncore steps into this job's IMC cap.

        Steps descend from the node generation's silicon maximum in
        ``imc_step_ghz`` increments, floored at the silicon minimum —
        the same ladder the policy's own UFS selection walks.
        """
        if grant.imc_steps <= 0:
            return cfg
        node_cfg = job.workload.node_config
        silicon_max = ratio_to_ghz(node_cfg.uncore_max_ratio)
        silicon_min = ratio_to_ghz(node_cfg.uncore_min_ratio)
        cap = round(silicon_max - grant.imc_steps * cfg.imc_step_ghz, 10)
        return replace(cfg, default_imc_max_ghz=max(silicon_min, cap))

    def _launch(self, starters: list[_Starting], now: float) -> None:
        from ..experiments.parallel import RunRequest

        requests = [
            RunRequest(
                workload=s.job.workload,
                ear_config=s.config,
                seed=s.job.seed,
                fault_plan=self.config.fault_plan,
                telemetry=self.config.job_telemetry,
            )
            for s in starters
        ]
        results = self.pool.run_many(requests)
        quarantined = False
        for start, result in zip(starters, results):
            if isinstance(result, FailedRun):
                # the experiment pool gave up on this job's run (poison
                # job): record a terminal failure, free the claimed
                # nodes, ship nothing to accounting.
                quarantined = True
                self._makespan_s = max(self._makespan_s, now)
                self._free.update(start.placement)
                if self.market is not None:
                    self.market.release(start.job_id)
                self._failures.append(
                    JobFailure(
                        index=start.job.index,
                        job_id=start.job_id,
                        workload=start.job.workload.name,
                        n_nodes=start.job.workload.n_nodes,
                        submit_s=start.job.submit_s,
                        start_s=now,
                        fail_s=now,
                        node_id=-1,
                        attempt=result.n_attempts,
                    )
                )
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "cluster",
                        "job_fail",
                        index=start.job.index,
                        workload=start.job.workload.name,
                        attempt=result.n_attempts,
                    )
                continue
            end = now + result.time_s
            running = _Running(start=start, start_s=now, end_s=end, result=result)
            self._running[start.job_id] = running
            self._events.push(end, EventKind.JOB_FINISH, running)
            self._maybe_schedule_crash(running, now)
            if self.telemetry.enabled:
                self.telemetry.event(
                    "cluster",
                    "job_start",
                    job_id=start.job_id,
                    index=start.job.index,
                    workload=start.job.workload.name,
                    nodes=",".join(str(n) for n in start.placement),
                    backfilled=start.backfilled,
                    pstate_offset=start.offset,
                )
        if quarantined and self._queue:
            # nodes freed by quarantined jobs can host queued work now,
            # and no future event is guaranteed to trigger a pass.
            self._schedule_pass()

    def _maybe_schedule_crash(self, running: _Running, now: float) -> None:
        """Draw the infra fault channel for one started attempt.

        One Bernoulli draw per attempt with success probability
        ``1 - (1 - rate)^n_nodes`` (any of the job's nodes may die); a
        firing crash picks a victim node and a uniform point inside the
        attempt's duration, and schedules the NODE_FAIL there.  Draw
        order follows launch order, so the schedule is deterministic
        for a given (trace, plan) pair.
        """
        plan = self._infra_plan
        if plan is None or plan.node_crash_rate <= 0.0:
            return
        placement = running.start.placement
        p_crash = 1.0 - (1.0 - plan.node_crash_rate) ** len(placement)
        if self._infra_rng.random() >= p_crash:
            return
        frac = self._infra_rng.uniform(0.05, 0.95)
        victim = placement[int(self._infra_rng.integers(0, len(placement)))]
        fail_at = now + frac * running.result.time_s
        self._events.push(fail_at, EventKind.NODE_FAIL, (running, victim))

    # -- reporting -----------------------------------------------------------

    def _report(self) -> ClusterReport:
        # The harvested aggregates are additive identities on the batch
        # path (nothing was drained), so every expression below reduces
        # bit-for-bit to the pre-streaming formula.
        outcomes = tuple(sorted(self._outcomes, key=lambda j: (j.start_s, j.index)))
        makespan = self._makespan_s
        busy = self._h_busy_node_s + sum(j.run_s * j.n_nodes for j in outcomes)
        waits = [j.wait_s for j in outcomes]
        n_jobs = self._h_jobs + len(waits)
        snapshot = self.telemetry.snapshot()
        return ClusterReport(
            n_nodes=self.config.n_nodes,
            policy=(
                self.config.ear_config.policy
                if self.config.ear_config is not None
                else "none"
            ),
            jobs=outcomes,
            makespan_s=makespan,
            total_energy_j=self._h_energy_j + sum(j.dc_energy_j for j in outcomes),
            utilisation=(
                busy / (self.config.n_nodes * makespan) if makespan > 0 else 0.0
            ),
            mean_wait_s=(
                (self._h_wait_sum_s + sum(waits)) / n_jobs if n_jobs else 0.0
            ),
            max_wait_s=max(self._h_wait_max_s, max(waits, default=0.0)),
            n_backfilled=self._h_backfilled + sum(1 for j in outcomes if j.backfilled),
            eardbd=self.eardbd.stats,
            budget_j=self.config.eargm.budget_j if self.config.eargm else None,
            consumed_j=self.eargm.consumed_j if self.eargm else None,
            final_level=self.eargm.level() if self.eargm else None,
            cap_changes=self._cap_changes,
            telemetry=snapshot,
            failures=tuple(
                sorted(self._failures, key=lambda f: (f.fail_s, f.index))
            ),
            n_requeues=self._n_requeues,
            n_node_failures=self._n_node_failures,
            market=self.market.stats() if self.market is not None else None,
        )
