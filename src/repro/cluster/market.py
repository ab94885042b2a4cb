"""EARGM power-cap market: nodes bid for watts, caps are redistributed.

The PR-4 EARGM grades an *energy* budget and answers with a cluster-wide
P-state offset — one knob for everybody.  Under a hard **power** cap
(Cuttlefish-style operation, ROADMAP item 4) that is too blunt: the
cap-compliance cost of a watt differs per workload, and the uncore is
the cheap lever for most of them (the paper's core result).  This
module promotes the ``benchmarks/test_powercap.py`` what-if into a real
market inside the cluster simulation:

* **Bids.**  When a job is claimed, it bids ``needed_w`` — its expected
  node power times its node count — and declares ``floor_w``, the power
  it can *guarantee* by fully descending its compliance ladder
  (``max_imc_steps`` uncore steps, then ``max_pstate_offset`` CPU
  P-states).  The expectation comes from the market's measured-power
  table — the cluster-side analogue of the policy's per-region table —
  seeded with :attr:`MarketConfig.default_w_per_node` until the first
  finish of that workload is observed.

* **Redistribution.**  Every admit, release and EARDBD-flush tick
  reallocates the whole budget over the active bids, in one of three
  regimes (exact conservation in all three, pinned by
  tests/cluster/test_market.py):

  - slack (``Σneeded ≤ budget``): everyone gets what they asked for;
  - binding (``Σfloor ≤ budget < Σneeded``): everyone gets their floor
    plus a pro-rata share of the remainder,
    ``floor_i + (needed_i − floor_i) · (budget − Σfloor)/(Σneeded − Σfloor)``;
  - infeasible (``budget < Σfloor``): floors are squeezed
    proportionally, ``floor_i · budget/Σfloor`` — the market never
    grants more than the budget, even when compliance cannot
    physically reach it.

* **Compliance ladder.**  A job's per-node deficit
  ``(needed − granted)/n_nodes`` is paid in uncore steps first
  (``imc_step_w`` watts each, up to ``max_imc_steps``) and only the
  residual in P-states (``pstate_w`` watts each) — eUFS as the
  first-resort cap-compliance tool.  The scheduler folds the resulting
  ``(imc_steps, pstate_offset)`` into the job's
  :class:`~repro.ear.config.EarConfig` at claim time
  (``default_imc_max_ghz`` / ``default_pstate_offset``), so actuation
  rides the exact knobs EARGM already uses and no engine change (or
  run-cache version bump) is needed.

Grants are frozen at claim time (re-capping a running job would need
mid-run re-simulation); redistribution affects the *next* admission,
which is how interval-based EARGM reconfiguration behaves between
ticks.  See docs/POLICIES.md for the derivation and a worked example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..telemetry.recorder import NULL_RECORDER, Recorder

__all__ = [
    "MarketConfig",
    "Bid",
    "Grant",
    "MarketInterval",
    "MarketStats",
    "PowerMarket",
]


@dataclass(frozen=True)
class MarketConfig:
    """The power market's budget and compliance-ladder pricing."""

    #: cluster-wide power budget the grants must stay within, in watts.
    budget_w: float
    #: watts one uncore ladder step is worth, per node.  The default
    #: matches the paper's SD530 measurements (~0.5 GHz of uncore ≈
    #: 20 W, i.e. ~4 W per 0.1 GHz step).
    imc_step_w: float = 4.0
    #: uncore steps a job can be asked to descend (8 × 0.1 GHz spans
    #: the full Skylake 2.4→1.6 GHz useful range).
    max_imc_steps: int = 8
    #: watts one CPU P-state is worth, per node (the costlier lever).
    pstate_w: float = 12.0
    #: P-states a capped job can be pushed down after the uncore ladder
    #: is exhausted (mirrors EARGM's PANIC offset).
    max_pstate_offset: int = 3
    #: expected node power until a workload's first finish is measured.
    default_w_per_node: float = 400.0

    def __post_init__(self) -> None:
        if self.budget_w <= 0:
            raise ConfigError("the market budget must be positive watts")
        if self.imc_step_w <= 0 or self.pstate_w <= 0:
            raise ConfigError("ladder step prices must be positive watts")
        if self.max_imc_steps < 0 or self.max_pstate_offset < 0:
            raise ConfigError("ladder depths cannot be negative")

    @property
    def saveable_w_per_node(self) -> float:
        """Watts one node can shed by fully descending its ladder."""
        return (
            self.max_imc_steps * self.imc_step_w
            + self.max_pstate_offset * self.pstate_w
        )


@dataclass(frozen=True)
class Bid:
    """One active job's demand on the budget."""

    job_id: int
    workload: str
    n_nodes: int
    #: expected draw at full speed (est. W/node × nodes).
    needed_w: float
    #: guaranteed draw with the ladder fully descended.
    floor_w: float


@dataclass(frozen=True)
class Grant:
    """The market's answer to one bid."""

    job_id: int
    granted_w: float
    #: uncore ladder steps the job must descend to comply.
    imc_steps: int
    #: CPU P-state offset on top of the uncore steps.
    pstate_offset: int

    @property
    def capped(self) -> bool:
        """Did compliance require touching any knob?"""
        return self.imc_steps > 0 or self.pstate_offset > 0


@dataclass(frozen=True)
class MarketInterval:
    """One flush-tick snapshot of the market (the conservation record)."""

    time_s: float
    budget_w: float
    #: Σ needed over active bids.
    demand_w: float
    #: Σ granted over active grants — ≤ budget whenever any bid is live.
    granted_w: float
    n_jobs: int
    n_capped: int


@dataclass(frozen=True)
class MarketStats:
    """Whole-campaign market summary for the cluster report."""

    budget_w: float
    intervals: tuple[MarketInterval, ...]
    #: jobs that were admitted with a non-trivial compliance ladder.
    n_capped_jobs: int
    n_jobs: int
    #: highest Σ granted across all intervals (≤ budget, pinned).
    peak_granted_w: float = 0.0
    #: workload → last measured W/node (the learned power table).
    power_table: tuple[tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        """JSON-friendly view (per-interval rows included)."""
        return {
            "budget_w": self.budget_w,
            "n_jobs": self.n_jobs,
            "n_capped_jobs": self.n_capped_jobs,
            "peak_granted_w": self.peak_granted_w,
            "power_table": {name: w for name, w in self.power_table},
            "intervals": [
                {
                    "time_s": i.time_s,
                    "budget_w": i.budget_w,
                    "demand_w": i.demand_w,
                    "granted_w": i.granted_w,
                    "n_jobs": i.n_jobs,
                    "n_capped": i.n_capped,
                }
                for i in self.intervals
            ],
        }


@dataclass
class PowerMarket:
    """The EARGM-side market state: bids, grants, measured powers."""

    config: MarketConfig
    telemetry: Recorder = NULL_RECORDER
    _bids: dict[int, Bid] = field(default_factory=dict)
    _grants: dict[int, Grant] = field(default_factory=dict)
    #: workload name → last measured W/node (learned at job finishes).
    _power_w: dict[str, float] = field(default_factory=dict)
    _intervals: list[MarketInterval] = field(default_factory=list)
    _n_jobs: int = 0
    _n_capped: int = 0

    # -- the power table ------------------------------------------------------

    def estimate_w_per_node(self, workload: str) -> float:
        """Expected node power for one workload (table, else prior)."""
        return self._power_w.get(workload, self.config.default_w_per_node)

    def observe(self, workload: str, w_per_node: float) -> None:
        """Record a finished job's measured node power (last write wins:
        the freshest measurement reflects the current cap regime)."""
        if w_per_node > 0:
            self._power_w[workload] = w_per_node

    # -- bidding --------------------------------------------------------------

    def admit(self, job_id: int, workload: str, n_nodes: int) -> Grant:
        """Bid for one starting job; return its (frozen) grant.

        The whole budget is reallocated over the active bids *including
        the newcomer*, but only the newcomer's grant is returned and
        recorded — running jobs keep the caps they started with.  The
        newcomer's target share is additionally clamped to the headroom
        the frozen grants leave, so ``Σ live grants ≤ budget`` holds by
        induction at every instant (the tick invariant).
        """
        est = self.estimate_w_per_node(workload)
        needed = est * n_nodes
        floor = max(0.0, needed - self.config.saveable_w_per_node * n_nodes)
        bid = Bid(
            job_id=job_id,
            workload=workload,
            n_nodes=n_nodes,
            needed_w=needed,
            floor_w=floor,
        )
        self._bids[job_id] = bid
        headroom = self.config.budget_w - sum(
            g.granted_w for g in self._grants.values()
        )
        granted = min(self._allocate()[job_id], max(0.0, headroom))
        grant = self._comply(bid, granted)
        self._grants[job_id] = grant
        self._n_jobs += 1
        if grant.capped:
            self._n_capped += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "market",
                "grant",
                job_id=job_id,
                workload=workload,
                needed_w=needed,
                granted_w=grant.granted_w,
                imc_steps=grant.imc_steps,
                pstate_offset=grant.pstate_offset,
            )
        return grant

    def release(self, job_id: int) -> None:
        """Drop a finished (or failed) job's bid; its watts free up for
        the next admission."""
        self._bids.pop(job_id, None)
        self._grants.pop(job_id, None)

    def grant_for(self, job_id: int) -> Grant | None:
        """The live grant for one job (None once released)."""
        return self._grants.get(job_id)

    # -- allocation -----------------------------------------------------------

    def _allocate(self) -> dict[int, float]:
        """Split the budget over active bids (three exact regimes)."""
        budget = self.config.budget_w
        bids = self._bids
        total_needed = sum(b.needed_w for b in bids.values())
        if total_needed <= budget:
            return {jid: b.needed_w for jid, b in bids.items()}
        total_floor = sum(b.floor_w for b in bids.values())
        if total_floor <= budget:
            # pro-rata share of the headroom above the floors.
            share = (budget - total_floor) / (total_needed - total_floor)
            return {
                jid: b.floor_w + (b.needed_w - b.floor_w) * share
                for jid, b in bids.items()
            }
        # infeasible: squeeze the floors themselves, never over-grant.
        squeeze = budget / total_floor
        return {jid: b.floor_w * squeeze for jid, b in bids.items()}

    def _comply(self, bid: Bid, granted_w: float) -> Grant:
        """Turn a watt deficit into ladder positions, uncore first."""
        cfg = self.config
        deficit = max(0.0, (bid.needed_w - granted_w) / bid.n_nodes)
        if deficit <= 1e-9:
            return Grant(
                job_id=bid.job_id,
                granted_w=granted_w,
                imc_steps=0,
                pstate_offset=0,
            )
        imc_steps = min(
            cfg.max_imc_steps, math.ceil((deficit - 1e-9) / cfg.imc_step_w)
        )
        residual = deficit - imc_steps * cfg.imc_step_w
        offset = (
            min(cfg.max_pstate_offset, math.ceil((residual - 1e-9) / cfg.pstate_w))
            if residual > 1e-9
            else 0
        )
        return Grant(
            job_id=bid.job_id,
            granted_w=granted_w,
            imc_steps=imc_steps,
            pstate_offset=offset,
        )

    # -- the interval tick ----------------------------------------------------

    def tick(self, time_s: float) -> MarketInterval:
        """Snapshot the market at one EARDBD flush (the EARGM interval).

        The conservation invariant lives here: the recorded
        ``granted_w`` is the sum over *live* grants, which the
        allocator keeps ≤ budget whenever demand exceeds it.
        """
        granted = sum(g.granted_w for g in self._grants.values())
        demand = sum(b.needed_w for b in self._bids.values())
        interval = MarketInterval(
            time_s=time_s,
            budget_w=self.config.budget_w,
            demand_w=demand,
            granted_w=granted,
            n_jobs=len(self._bids),
            n_capped=sum(1 for g in self._grants.values() if g.capped),
        )
        self._intervals.append(interval)
        if self.telemetry.enabled:
            self.telemetry.event(
                "market",
                "interval",
                demand_w=demand,
                granted_w=granted,
                budget_w=self.config.budget_w,
                n_jobs=len(self._bids),
            )
        return interval

    def stats(self) -> MarketStats:
        """Whole-campaign summary for the cluster report."""
        intervals = tuple(self._intervals)
        return MarketStats(
            budget_w=self.config.budget_w,
            intervals=intervals,
            n_capped_jobs=self._n_capped,
            n_jobs=self._n_jobs,
            peak_granted_w=max((i.granted_w for i in intervals), default=0.0),
            power_table=tuple(sorted(self._power_w.items())),
        )
