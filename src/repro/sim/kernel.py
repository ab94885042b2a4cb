"""Batched numpy simulation kernel.

The scalar engine (:mod:`repro.sim.engine`) evaluates one iteration per
node per Python-level loop step: per iteration it re-runs the hardware
UFS controller, the RAPL power-cap descent, the time model and the
power model, even though *nothing changes between frequency decisions*
— the MSR state the physics depends on is only touched by EARD at
measurement-window boundaries (every ≥10 s of simulated time), by pins
before the run, or by injected faults.  Between those events the
per-iteration physics of a node is one deterministic number ``t_det``
scaled by the iteration's noise draw, and its energy is affine in time.

This module exploits that:

* :class:`NodePhysics` is a *plan*: everything one node's iterations
  need, computed once — deterministic iteration time, effective clocks,
  per-socket zero-traffic powers and per-iteration traffic energies
  (node power is exactly affine in traffic and traffic is
  ``bytes / t``, so the traffic term is a time-invariant energy per
  iteration), spin-wait powers, counter increments.
* The **vectorized path** handles runs with no EARL, no fault injector
  and no telemetry (frequency sweeps, learning grids, the cluster
  scheduler's workhorse runs): a whole phase collapses into a
  ``(n_iterations, n_nodes)`` numpy block — times, barrier walls and
  spin-wait splits in a handful of array ops, then *one* energy commit
  per node per phase.
* The **committed path** handles runs with EARL/EARD, faults or
  telemetry: plans are cached per (node, throttle-clamp) and replayed
  per iteration, with results committed to the sensors every iteration
  so the scalar EARL/EARD code observes exactly the state it would
  under the scalar engine (windows close on the same iteration, RAPL
  polls see at most one wrap, fault onsets compare against the same
  node clock).  Plans are invalidated by the sockets'
  :attr:`~repro.hw.msr.MsrFile.write_generation`, so any EARD frequency
  decision, EPB change or power-cap write rebuilds the physics.

Decisions stay scalar by design: EARL's state machine, DynAIS and the
policies are control-flow-heavy, run once per ≥10 s window, and are the
code under test — vectorising them would fork the reference
implementation the equivalence gate pins against.

Equivalence contract (``tests/sim/test_kernel_equivalence.py``):
iteration times are *bit-identical* to the scalar engine (same RNG
draws, same deterministic time expression), so window boundaries and
policy decisions match; energies differ only by floating-point
reassociation, within 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..workloads.phase import IterationCounters, PhaseProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hw.node import Node
    from .engine import SimulationEngine

__all__ = ["NodePhysics", "BatchedKernel"]


@dataclass(frozen=True)
class NodePhysics:
    """Precomputed per-iteration physics of one node under fixed MSRs.

    Valid as long as the node's MSR state (and the phase profile) is
    unchanged; energies are stored as ``power * t + traffic_energy``
    pieces so any iteration time can be priced without re-entering the
    power model.
    """

    #: deterministic (noise-free) iteration time, seconds.
    t_det: float
    #: sustained core clock during compute, GHz (post licence/cap).
    eff_compute_ghz: float
    #: sustained core clock while spinning at the barrier, GHz.
    eff_wait_ghz: float
    #: active application cores, per socket and total.
    n_active_per_socket: tuple[int, ...]
    n_active_total: int
    #: uncore ratios the UFS controller converged to for this plan.
    uncore_ratios: tuple[int, ...]
    #: compute-segment power at zero traffic, per domain.
    pck_w0: tuple[float, ...]
    dram_w0: float
    dc_w0: float
    #: time-invariant traffic energy per iteration, per domain, joules.
    pck_traffic_j: tuple[float, ...]
    dram_traffic_j: float
    dc_traffic_j: float
    #: spin-wait power (no traffic), per domain.
    pck_w_wait: tuple[float, ...]
    dram_w_wait: float
    dc_w_wait: float
    #: per-iteration counter increments (time-invariant).
    instructions: float
    nbytes: float
    avx512: float


class BatchedKernel:
    """Numpy inner loop for one :class:`SimulationEngine` run."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self._engine = engine
        #: node_id -> (msr write generation, {clamp_ghz: plan})
        self._plans: dict[int, tuple[int, dict[float | None, NodePhysics]]] = {}

    # -- entry point -------------------------------------------------------

    def run_phases(self) -> None:
        """Execute every workload phase through the batched paths."""
        eng = self._engine
        vectorizable = (
            not eng.earls and not eng.injectors and not eng.telemetry_enabled
        )
        for profile, n_iterations in eng.workload.phases:
            self._plans.clear()  # plans are per-profile
            if vectorizable:
                self._run_phase_vectorized(profile, n_iterations)
            else:
                self._run_phase_committed(profile, n_iterations)

    # -- noise -------------------------------------------------------------

    def _phase_noise(self, n_iters: int, n_nodes: int) -> np.ndarray:
        """The phase's noise block, drawn exactly like the scalar engine.

        ``normal(size=(k, n))`` consumes the generator identically to
        ``k`` sequential ``normal(size=n)`` draws, so the block's rows
        are bit-for-bit the factors the scalar loop would apply — and a
        run switched between engines mid-way would stay aligned.
        """
        eng = self._engine
        if eng.noise_sigma == 0:
            block = np.ones((n_iters, n_nodes))
        else:
            block = np.exp(
                eng._rng.normal(0.0, eng.noise_sigma, size=(n_iters, n_nodes))
            )
        return block * eng._node_slowdown[None, :]

    # -- plan construction -------------------------------------------------

    def _physics(
        self, node: "Node", profile: PhaseProfile, clamp_ghz: float | None
    ) -> NodePhysics:
        """Run the scalar per-iteration physics once and freeze the result.

        Mirrors :meth:`PhaseProfile.execute_iteration` step for step
        (licence clamp, UFS convergence, RAPL cap descent, time model)
        minus the noise factor and the sensor commits, so ``t_det``
        is the exact multiplier the scalar engine would compute.
        """
        ref_core = profile._reference_effective_ghz(node)
        eff = node.sockets[0].effective_freq_ghz(profile.vpi)
        if clamp_ghz is not None:
            eff = min(eff, clamp_ghz)
        op = profile.operating_point(node, effective_core_ghz=eff)
        node.run_ufs(op)
        f_unc = node.uncore_freq_ghz
        eff = profile._power_capped_ghz(node, eff, f_unc, ref_core_ghz=ref_core)
        op = replace(op, effective_core_ghz=eff)
        t_det = profile.iteration_time_s(
            f_core_ghz=eff,
            f_uncore_ghz=f_unc,
            ref_core_ghz=ref_core,
            ref_uncore_ghz=profile.ref_uncore_ghz(node),
            dram=node.config.dram,
        )
        nbytes = profile.bytes_per_iteration()
        p0, pck_slopes, dram_slope = node.power_affine(op)
        gb = nbytes / 1e9
        # spin-wait segment: MPI runtime spinning, no vector work, no traffic.
        from .engine import _WAIT_ACTIVITY_FACTOR

        eff_wait = node.sockets[0].effective_freq_ghz(0.0)
        op_wait = replace(
            profile.operating_point(node, effective_core_ghz=eff_wait),
            activity=profile.activity * _WAIT_ACTIVITY_FACTOR,
            traffic_gbs=0.0,
            vpi=0.0,
        )
        p_wait = node.power(op_wait)
        n_cores = node.config.n_cores
        active = (
            profile.n_active_cores if profile.n_active_cores is not None else n_cores
        )
        instr = profile.instructions_per_iteration(
            ref_core_ghz=ref_core, n_cores=n_cores
        )
        return NodePhysics(
            t_det=t_det,
            eff_compute_ghz=eff,
            eff_wait_ghz=eff_wait,
            n_active_per_socket=node.active_cores_per_socket(active),
            n_active_total=active,
            uncore_ratios=tuple(
                d.current_ratio for s in node.sockets for d in s.dies
            ),
            pck_w0=p0.pck_w,
            dram_w0=p0.dram_w,
            dc_w0=p0.dc_w,
            pck_traffic_j=tuple(s * gb for s in pck_slopes),
            dram_traffic_j=dram_slope * gb,
            dc_traffic_j=(sum(pck_slopes) + dram_slope) * gb,
            pck_w_wait=p_wait.pck_w,
            dram_w_wait=p_wait.dram_w,
            dc_w_wait=p_wait.dc_w,
            instructions=instr,
            nbytes=nbytes,
            avx512=profile.vpi * instr,
        )

    def _plan_for(
        self, node: "Node", profile: PhaseProfile, clamp_ghz: float | None
    ) -> NodePhysics:
        """Fetch (or rebuild) the node's plan for the current MSR state.

        Any successful MSR write on any of the node's sockets — an EARD
        frequency decision, an EPB or power-limit change — bumps the
        sockets' ``write_generation`` and drops every cached plan for
        the node.  Reusing a cached plan restores the uncore ratios the
        plan's UFS convergence produced, exactly as the scalar engine's
        per-iteration ``run_ufs`` call would.
        """
        # non-MSR backends (sysfs/TPMI) bypass the MSR file, so their
        # own write counter joins the invalidation tag; MsrBackend
        # leaves it at zero and the tag reduces to the pre-backend sum.
        gen = node.uncore_backend.write_generation
        for s in node.sockets:
            gen += s.msr.write_generation
        cached_gen, by_clamp = self._plans.get(node.node_id, (-1, {}))
        if cached_gen != gen:
            by_clamp = {}
            self._plans[node.node_id] = (gen, by_clamp)
        plan = by_clamp.get(clamp_ghz)
        if plan is None:
            plan = self._physics(node, profile, clamp_ghz)
            by_clamp[clamp_ghz] = plan
        else:
            dies = [d for s in node.sockets for d in s.dies]
            for dom, ratio in zip(dies, plan.uncore_ratios):
                if dom.current_ratio != ratio:
                    dom.set_ratio(ratio)
        return plan

    # -- energy commits ----------------------------------------------------

    @staticmethod
    def _commit_compute(node: "Node", plan: NodePhysics, seconds: float, n_iters: int) -> None:
        """Price ``n_iters`` compute segments totalling ``seconds``."""
        node.advance_energy(
            pck_j=[
                w0 * seconds + n_iters * tj
                for w0, tj in zip(plan.pck_w0, plan.pck_traffic_j)
            ],
            dram_j=plan.dram_w0 * seconds + n_iters * plan.dram_traffic_j,
            dc_j=plan.dc_w0 * seconds + n_iters * plan.dc_traffic_j,
            n_active_per_socket=plan.n_active_per_socket,
            effective_ghz=plan.eff_compute_ghz,
            seconds=seconds,
        )

    @staticmethod
    def _commit_wait(node: "Node", plan: NodePhysics, seconds: float) -> None:
        """Price barrier-wait time (constant power, no traffic)."""
        node.advance_energy(
            pck_j=[w * seconds for w in plan.pck_w_wait],
            dram_j=plan.dram_w_wait * seconds,
            dc_j=plan.dc_w_wait * seconds,
            n_active_per_socket=plan.n_active_per_socket,
            effective_ghz=plan.eff_wait_ghz,
            seconds=seconds,
        )

    # -- vectorized path ---------------------------------------------------

    def _run_phase_vectorized(self, profile: PhaseProfile, n_iters: int) -> None:
        """Whole phase as one (iterations, nodes) block; one flush per node.

        Preconditions (checked by :meth:`run_phases`): no EARL, no fault
        injector, no telemetry.  Then no MSR changes mid-phase, every
        iteration of a node shares one plan, and nothing observes the
        sensors between iterations — so the phase's energy and
        accounting collapse to closed-form sums.
        """
        eng = self._engine
        n_nodes = len(eng.cluster)
        noises = self._phase_noise(n_iters, n_nodes)
        plans = [self._plan_for(node, profile, None) for node in eng.cluster]
        t_det = np.array([p.t_det for p in plans])
        t = noises * t_det[None, :]
        t_wall = t.max(axis=1)
        wait = t_wall[:, None] - t
        # the scalar loop skips sub-picosecond waits entirely
        wait[wait <= 1e-12] = 0.0
        # sequential sum, matching the scalar loop's accumulation order
        total_wall = float(np.cumsum(t_wall)[-1])
        for j, (node, plan) in enumerate(zip(eng.cluster, plans)):
            st = float(t[:, j].sum())
            sw = float(wait[:, j].sum())
            self._commit_compute(node, plan, st, n_iters)
            if sw > 0.0:
                self._commit_wait(node, plan, sw)
            eng.banks[node.node_id].add_bulk(
                iterations=n_iters,
                wall_seconds=total_wall,
                instructions=n_iters * plan.instructions,
                cycles=plan.eff_compute_ghz * 1e9 * plan.n_active_total * st,
                bytes_transferred=n_iters * plan.nbytes,
                avx512_instructions=n_iters * plan.avx512,
            )
        eng._time_s += total_wall

    # -- committed path ----------------------------------------------------

    def _run_phase_committed(self, profile: PhaseProfile, n_iters: int) -> None:
        """Plan-replay loop: physics from cache, sensors committed per
        iteration so EARL/EARD and the fault layer observe scalar state.
        """
        eng = self._engine
        nodes = eng.cluster.nodes
        n_nodes = len(nodes)
        noises = self._phase_noise(n_iters, n_nodes)
        for i in range(n_iters):
            row = noises[i]
            cur: list[NodePhysics] = []
            t_row = np.empty(n_nodes)
            for j, node in enumerate(nodes):
                injector = eng.injectors.get(node.node_id)
                clamp = None
                if injector is not None:
                    injector.on_iteration_start(node)
                    clamp = injector.throttle_clamp_ghz(node.elapsed_s)
                plan = self._plan_for(node, profile, clamp)
                cur.append(plan)
                t_row[j] = plan.t_det * row[j]
            t_wall = float(t_row.max())
            for j, node in enumerate(nodes):
                plan = cur[j]
                t = float(t_row[j])
                self._commit_compute(node, plan, t, 1)
                wait = t_wall - t
                if wait > 1e-12:
                    self._commit_wait(node, plan, wait)
                c = IterationCounters(
                    seconds=t,
                    instructions=plan.instructions,
                    cycles=t * plan.eff_compute_ghz * 1e9 * plan.n_active_total,
                    bytes_transferred=plan.nbytes,
                    avx512_instructions=plan.avx512,
                )
                eng.banks[node.node_id].add_iteration(c, wall_seconds=t_wall)
                earl = eng.earls.get(node.node_id)
                if earl is not None:
                    injector = eng.injectors.get(node.node_id)
                    seen = c if injector is None else injector.corrupt_counters(c)
                    earl.on_iteration(seen, profile.mpi_events, t_wall)
            eng._time_s += t_wall
            if eng.telemetry_enabled:
                for node in nodes:
                    rec = eng.recorders[node.node_id]
                    rec.observe("engine.iteration_s", t_wall)
                    rec.event(
                        "engine",
                        "freq_sample",
                        cpu_target_ghz=node.core_target_ghz,
                        imc_freq_ghz=node.uncore_freq_ghz,
                    )
