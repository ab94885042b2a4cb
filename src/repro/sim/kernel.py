"""Batched numpy simulation kernel.

The scalar engine (:mod:`repro.sim.engine`) evaluates one iteration per
node per Python-level loop step: per iteration it re-derives the
iteration's physics with :meth:`~repro.workloads.phase.PhaseProfile.plan`
(hardware UFS convergence, RAPL power-cap descent, time model) and
re-enters the power model, even though *nothing changes between
frequency decisions* — the MSR state the physics depends on is only
touched by EARD at measurement-window boundaries (every ≥10 s of
simulated time), by pins before the run, or by injected faults.
Between those events the per-iteration physics of a node is one
deterministic number ``t_det`` scaled by the iteration's noise draw,
and its energy is affine in time.

This module exploits that:

* :class:`NodePhysics` prices one such
  :class:`~repro.workloads.phase.IterationPlan` once: per-socket
  zero-traffic powers and per-iteration traffic energies (node power
  is exactly affine in traffic and traffic is ``bytes / t``, so the
  traffic term is a time-invariant energy per iteration) and spin-wait
  powers; clocks, ``t_det`` and counter increments come from the plan.
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
draws, same :meth:`~repro.workloads.phase.PhaseProfile.plan`), so
window boundaries and policy decisions match; energies differ only by
floating-point reassociation, within 1e-9 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..workloads.phase import IterationPlan, PhaseProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hw.node import Node
    from .engine import SimulationEngine

__all__ = ["NodePhysics", "BatchedKernel"]


@dataclass(frozen=True)
class NodePhysics:
    """One node's iteration plan, priced under fixed MSRs.

    Valid as long as the node's MSR state (and the phase profile) is
    unchanged; energies are stored as ``power * t + traffic_energy``
    pieces so any iteration time can be priced without re-entering the
    power model.
    """

    #: the iteration physics (clocks, ``t_det``, counter increments).
    plan: IterationPlan
    #: sustained core clock while spinning at the barrier, GHz.
    eff_wait_ghz: float
    #: active application cores per socket.
    n_active_per_socket: tuple[int, ...]
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
            not eng.earls and not eng.injectors and not eng.spec.telemetry
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
        sigma = eng.spec.noise_sigma
        if sigma == 0:
            block = np.ones((n_iters, n_nodes))
        else:
            block = np.exp(eng._rng.normal(0.0, sigma, size=(n_iters, n_nodes)))
        return block * eng._node_slowdown[None, :]

    # -- plan construction -------------------------------------------------

    def _physics(
        self, node: "Node", profile: PhaseProfile, clamp_ghz: float | None
    ) -> NodePhysics:
        """Price one :meth:`PhaseProfile.plan` and freeze the result.

        The plan is the scalar engine's own derivation, so ``t_det`` is
        the exact multiplier the scalar engine would compute; this adds
        only the affine power decomposition and the spin-wait power.
        """
        plan = profile.plan(node, clamp_ghz=clamp_ghz)
        p0, pck_slopes, dram_slope = node.power_affine(plan.op)
        gb = plan.nbytes / 1e9
        op_wait = profile.wait_point(node)
        p_wait = node.power(op_wait)
        return NodePhysics(
            plan=plan,
            eff_wait_ghz=op_wait.effective_core_ghz,
            n_active_per_socket=node.active_cores_per_socket(plan.op.n_active_cores),
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
        phys = by_clamp.get(clamp_ghz)
        if phys is None:
            phys = self._physics(node, profile, clamp_ghz)
            by_clamp[clamp_ghz] = phys
        else:
            dies = [d for s in node.sockets for d in s.dies]
            for dom, ratio in zip(dies, phys.uncore_ratios):
                if dom.current_ratio != ratio:
                    dom.set_ratio(ratio)
        return phys

    # -- energy commits ----------------------------------------------------

    @staticmethod
    def _commit_compute(node: "Node", phys: NodePhysics, seconds: float, n_iters: int) -> None:
        """Price ``n_iters`` compute segments totalling ``seconds``."""
        node.advance_energy(
            pck_j=[
                w0 * seconds + n_iters * tj
                for w0, tj in zip(phys.pck_w0, phys.pck_traffic_j)
            ],
            dram_j=phys.dram_w0 * seconds + n_iters * phys.dram_traffic_j,
            dc_j=phys.dc_w0 * seconds + n_iters * phys.dc_traffic_j,
            n_active_per_socket=phys.n_active_per_socket,
            effective_ghz=phys.plan.op.effective_core_ghz,
            seconds=seconds,
        )

    @staticmethod
    def _commit_wait(node: "Node", phys: NodePhysics, seconds: float) -> None:
        """Price barrier-wait time (constant power, no traffic)."""
        node.advance_energy(
            pck_j=[w * seconds for w in phys.pck_w_wait],
            dram_j=phys.dram_w_wait * seconds,
            dc_j=phys.dc_w_wait * seconds,
            n_active_per_socket=phys.n_active_per_socket,
            effective_ghz=phys.eff_wait_ghz,
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
        physics = [self._plan_for(node, profile, None) for node in eng.cluster]
        t_det = np.array([p.plan.t_det for p in physics])
        t = noises * t_det[None, :]
        t_wall = t.max(axis=1)
        wait = t_wall[:, None] - t
        # the scalar loop skips sub-picosecond waits entirely
        wait[wait <= 1e-12] = 0.0
        # sequential sum, matching the scalar loop's accumulation order
        total_wall = float(np.cumsum(t_wall)[-1])
        for j, (node, phys) in enumerate(zip(eng.cluster, physics)):
            st = float(t[:, j].sum())
            sw = float(wait[:, j].sum())
            self._commit_compute(node, phys, st, n_iters)
            if sw > 0.0:
                self._commit_wait(node, phys, sw)
            plan = phys.plan
            eng.banks[node.node_id].add_bulk(
                iterations=n_iters,
                wall_seconds=total_wall,
                instructions=n_iters * plan.instructions,
                cycles=plan.op.effective_core_ghz * 1e9 * plan.op.n_active_cores * st,
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
                phys = self._plan_for(node, profile, clamp)
                cur.append(phys)
                t_row[j] = phys.plan.t_det * row[j]
            t_wall = float(t_row.max())
            for j, node in enumerate(nodes):
                phys = cur[j]
                t = float(t_row[j])
                self._commit_compute(node, phys, t, 1)
                wait = t_wall - t
                if wait > 1e-12:
                    self._commit_wait(node, phys, wait)
                c = phys.plan.counters(t)
                eng.banks[node.node_id].add_iteration(c, wall_seconds=t_wall)
                earl = eng.earls.get(node.node_id)
                if earl is not None:
                    injector = eng.injectors.get(node.node_id)
                    seen = c if injector is None else injector.corrupt_counters(c)
                    earl.on_iteration(seen, profile.mpi_events, t_wall)
            eng._time_s += t_wall
            if eng.spec.telemetry:
                for node in nodes:
                    rec = eng.recorders[node.node_id]
                    rec.observe("engine.iteration_s", t_wall)
                    rec.event(
                        "engine",
                        "freq_sample",
                        cpu_target_ghz=node.core_target_ghz,
                        imc_freq_ghz=node.uncore_freq_ghz,
                    )
