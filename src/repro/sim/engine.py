"""The discrete-event simulation engine.

Executes a workload on a cluster of simulated nodes, iteration by
iteration, with one EARL instance per node (exactly the deployment the
paper describes).  Each application iteration:

1. every node executes the current phase's iteration at its present
   frequencies (the HW UFS controller converges first — its 10 ms loop
   is far below iteration durations);
2. nodes synchronise at the MPI barrier: the iteration's wall time is
   the slowest node's time, and faster nodes spend the difference
   spinning in the MPI runtime (reduced activity, no traffic);
3. each node's EARL consumes the iteration (DynAIS events, counters);
   when a measurement window completes it computes a signature, runs
   the policy and reprograms the MSRs through EARD.

Event-driven rather than time-stepped: with iteration times of
0.4-1.5 s and ≥10 s signature windows, nothing interesting happens
between iteration boundaries, so a multi-thousand-second multi-node
run simulates in milliseconds.

All stochasticity (per-iteration time jitter) flows from one seeded
generator, so runs are exactly reproducible and the paper's
three-runs-averaged methodology is honest noise averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ear.config import EarConfig
from ..ear.eard import Eard
from ..ear.earl import Earl
from ..errors import ExperimentError
from ..hw.counters import CounterBank
from ..hw.node import Cluster
from ..hw.units import ratio_to_ghz
from ..telemetry.recorder import NULL_RECORDER, EventRecorder, Recorder
from ..workloads.app import Workload
from ..workloads.phase import PhaseProfile
from .faults import FaultInjector, FaultPlan, HealthMonitor
from .result import NodeResult, RunResult

__all__ = ["RunSpec", "SimulationEngine", "run_workload"]

#: relative sigma of the per-iteration lognormal time jitter.
DEFAULT_NOISE_SIGMA = 0.003

#: the inner-loop implementations a run may select (``RunSpec.engine``).
ENGINES = ("scalar", "batched")


@dataclass(frozen=True)
class RunSpec:
    """One simulation run: the only declaration of the run parameters.

    ``workload`` is the *unscaled* workload; ``scale`` shrinks its
    iteration counts when :class:`SimulationEngine` is built, so a run
    is scaled in exactly one place.

    ``pin_cpu_ghz``/``pin_uncore_ghz`` fix frequencies for the whole
    run (the motivation study's fixed-uncore sweeps, section II of the
    paper); they are mutually exclusive with a frequency-setting EAR
    configuration.

    ``node_speed_spread`` introduces static per-node performance
    heterogeneity (manufacturing/thermal variation): each node gets a
    fixed multiplicative slowdown factor drawn once per run, so the
    same node is the straggler at every barrier — the realistic worst
    case for bulk-synchronous codes.

    ``fault_plan`` arms the deterministic fault-injection layer
    (:mod:`repro.sim.faults`): each node gets an injector seeded from
    ``(plan.seed, seed, node_id)``, independent of the iteration-noise
    RNG, so the clean-path result is bit-identical with and without an
    all-zero plan.

    ``engine`` selects the inner-loop implementation: ``"scalar"`` (the
    reference, one iteration per node per Python step) or ``"batched"``
    (:mod:`repro.sim.kernel`, numpy over whole iteration chunks).  Both
    consume the run RNG identically, so iteration times — and therefore
    every window boundary and policy decision — match; see
    ``tests/sim/test_kernel_equivalence.py`` for the pinned gate.

    ``telemetry`` arms one :class:`~repro.telemetry.EventRecorder` per
    node, threaded through EARD, EARL, the policy and the fault
    injector; the default is the zero-cost ``NullRecorder``.  Recorders
    draw no randomness and never touch the physics, so the field is
    ``compare=False``: a run with telemetry *is* the plain run plus
    extra observability.
    """

    workload: Workload
    ear_config: EarConfig | None = None
    #: defaults to 0 for cell templates: :meth:`repro.experiments.parallel
    #: .ExperimentPool.averages` replaces it with each averaged seed.
    seed: int = 0
    scale: float = 1.0
    pin_cpu_ghz: float | None = None
    pin_uncore_ghz: float | None = None
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    node_speed_spread: float = 0.0
    fault_plan: FaultPlan | None = None
    engine: str = "scalar"
    telemetry: bool = field(default=False, compare=False)

    def execute(self) -> RunResult:
        """Build the engine for this run and run it once."""
        return SimulationEngine(self).run()


class SimulationEngine:
    """One job execution: workload x cluster x (optional) EAR."""

    def __init__(self, spec: RunSpec) -> None:
        """Scale, validate and set up the run ``spec`` describes.

        ``self.workload`` is the scaled, calibrated workload.

        RNG draw order (the reproducibility contract, which both
        engines and the zero-noise property tests rely on):

        1. at construction, ``uniform(0, node_speed_spread, n_nodes)``
           — drawn **only** when ``node_speed_spread > 0``;
        2. per iteration, ``normal(0, noise_sigma, n_nodes)`` — drawn
           **only** when ``noise_sigma > 0``.

        Disabled features must not consume draws, so e.g. turning the
        spread off leaves the per-iteration noise stream unchanged.
        The fault injectors own separate generators and never touch
        this stream.
        """
        workload = spec.workload
        if spec.scale != 1.0:
            workload = workload.scaled_iterations(spec.scale)
        ear_config = spec.ear_config
        if spec.noise_sigma < 0:
            raise ExperimentError("noise sigma cannot be negative")
        if spec.engine not in ENGINES:
            raise ExperimentError(
                f"unknown engine {spec.engine!r}; expected 'scalar' or 'batched'"
            )
        if not 0.0 <= spec.node_speed_spread < 0.3:
            raise ExperimentError("node_speed_spread must be in [0, 0.3)")
        if ear_config is not None and (
            spec.pin_cpu_ghz is not None or spec.pin_uncore_ghz is not None
        ):
            # Pins under an observe-only policy are the learning phase:
            # EAR's "compute coefficients" jobs measure signatures at a
            # fixed operating point.  A frequency-setting policy would
            # fight the pins, so those stay rejected.
            from ..ear.policies.registry import policy_applies_frequencies

            if policy_applies_frequencies(ear_config.policy):
                raise ExperimentError(
                    "cannot pin frequencies under a frequency-setting EAR policy"
                )
        self.spec = spec
        self.workload = workload.calibrated()
        self.cluster = Cluster(self.workload.node_config, self.workload.n_nodes)
        self.recorders: dict[int, Recorder] = {}
        for node in self.cluster:
            if spec.telemetry:
                # clock bound to the node: every subsystem's events are
                # stamped with that node's simulated elapsed time.
                self.recorders[node.node_id] = EventRecorder(
                    node=node.node_id, clock=(lambda n=node: n.elapsed_s)
                )
            else:
                self.recorders[node.node_id] = NULL_RECORDER
            # the backend emits uncore/limit_write on every landed limit
            # write, including the pin writes just below.
            node.uncore_backend.telemetry = self.recorders[node.node_id]
        for node in self.cluster:
            if spec.pin_cpu_ghz is not None:
                node.set_core_freq(spec.pin_cpu_ghz, privileged=True)
            if spec.pin_uncore_ghz is not None:
                from ..hw.msr import UncoreRatioLimit
                from ..hw.units import ghz_to_ratio

                ratio = ghz_to_ratio(spec.pin_uncore_ghz)
                node.set_uncore_limits(
                    UncoreRatioLimit(min_ratio=ratio, max_ratio=ratio),
                    privileged=True,
                )
        self.banks = {node.node_id: CounterBank() for node in self.cluster}
        fault_plan = spec.fault_plan
        self.monitors = {node.node_id: HealthMonitor() for node in self.cluster}
        self.injectors: dict[int, FaultInjector] = {}
        if fault_plan is not None and fault_plan.enabled:
            for node in self.cluster:
                self.injectors[node.node_id] = FaultInjector(
                    fault_plan,
                    run_seed=spec.seed,
                    node_id=node.node_id,
                    health=self.monitors[node.node_id],
                    telemetry=self.recorders[node.node_id],
                )
        self.earls: dict[int, Earl] = {}
        if ear_config is not None:
            for node in self.cluster:
                eard = Eard(
                    node,
                    injector=self.injectors.get(node.node_id),
                    health=self.monitors[node.node_id],
                    telemetry=self.recorders[node.node_id],
                )
                self.earls[node.node_id] = Earl(eard, ear_config)
        self._rng = np.random.default_rng(spec.seed)
        # static heterogeneity: slowdown factors >= 1, fixed for the run
        if spec.node_speed_spread > 0:
            draws = self._rng.uniform(
                0.0, spec.node_speed_spread, size=len(self.cluster)
            )
            self._node_slowdown = 1.0 + draws
        else:
            self._node_slowdown = np.ones(len(self.cluster))
        self._time_s = 0.0

    # -- execution ---------------------------------------------------------

    def run(self) -> RunResult:
        """Execute every phase to completion; return the job outcome."""
        if self.spec.engine == "batched":
            from .kernel import BatchedKernel

            BatchedKernel(self).run_phases()
        else:
            for profile, n_iterations in self.workload.phases:
                for _ in range(n_iterations):
                    self._run_iteration(profile)
        for earl in self.earls.values():
            earl.on_app_end()
        return self._result()

    def _run_iteration(self, profile: PhaseProfile) -> None:
        noises = self._iteration_noise(len(self.cluster)) * self._node_slowdown
        counters = {}
        for node, noise in zip(self.cluster, noises):
            injector = self.injectors.get(node.node_id)
            clamp = None
            if injector is not None:
                injector.on_iteration_start(node)
                clamp = injector.throttle_clamp_ghz(node.elapsed_s)
            counters[node.node_id] = profile.execute_iteration(
                node, noise=noise, clamp_ghz=clamp
            )
        t_wall = max(c.seconds for c in counters.values())
        for node in self.cluster:
            c = counters[node.node_id]
            wait = t_wall - c.seconds
            if wait > 1e-12:
                # barrier-wait time spent spinning in the MPI runtime
                node.advance(profile.wait_point(node), wait)
            self.banks[node.node_id].add_iteration(c, wall_seconds=t_wall)
            earl = self.earls.get(node.node_id)
            if earl is not None:
                injector = self.injectors.get(node.node_id)
                # corruption hits only EARL's *read* of the counters;
                # the engine's ground-truth bank above stays exact.
                seen = c if injector is None else injector.corrupt_counters(c)
                earl.on_iteration(seen, profile.mpi_events, t_wall)
        self._time_s += t_wall
        if self.spec.telemetry:
            for node in self.cluster:
                rec = self.recorders[node.node_id]
                rec.observe("engine.iteration_s", t_wall)
                rec.event(
                    "engine",
                    "freq_sample",
                    cpu_target_ghz=node.core_target_ghz,
                    imc_freq_ghz=node.uncore_freq_ghz,
                )

    def _iteration_noise(self, n: int) -> np.ndarray:
        sigma = self.spec.noise_sigma
        if sigma == 0:
            return np.ones(n)
        return np.exp(self._rng.normal(0.0, sigma, size=n))

    # -- results ----------------------------------------------------------------

    def _result(self) -> RunResult:
        nodes = []
        for node in self.cluster:
            snap = self.banks[node.node_id].snapshot()
            monitor = self.monitors[node.node_id]
            monitor.finish(node.elapsed_s)
            nodes.append(
                NodeResult(
                    node_id=node.node_id,
                    dc_energy_j=node.dc_meter.exact_joules,
                    pck_energy_j=node.pck_energy_j,
                    seconds=node.elapsed_s,
                    avg_cpu_freq_ghz=node.average_cpu_freq_ghz(),
                    avg_imc_freq_ghz=node.average_imc_freq_ghz(),
                    cpi=snap.cpi if snap.instructions > 0 else 0.0,
                    gbs=snap.gbs,
                    health=monitor.snapshot(),
                    telemetry=self.recorders[node.node_id].snapshot(),
                )
            )
        nodes = tuple(nodes)
        earl0 = self.earls.get(0)
        ear_config = self.spec.ear_config
        policy = "none" if ear_config is None else ear_config.policy
        node_config = self.workload.node_config
        return RunResult(
            workload=self.workload.name,
            n_nodes=self.workload.n_nodes,
            policy=policy,
            seed=self.spec.seed,
            time_s=self._time_s,
            nodes=nodes,
            signatures=tuple(earl0.signatures) if earl0 else (),
            decisions=tuple(earl0.decisions) if earl0 else (),
            cpu_freq_range_ghz=(
                node_config.pstates.min_ghz,
                node_config.pstates.turbo_ghz,
            ),
            imc_freq_range_ghz=(
                ratio_to_ghz(node_config.uncore_min_ratio),
                ratio_to_ghz(node_config.uncore_max_ratio),
            ),
        )


def run_workload(workload: Workload, **fields) -> RunResult:
    """Convenience wrapper: run ``RunSpec(workload, **fields)`` once."""
    return RunSpec(workload, **fields).execute()
