"""Phase profiles: the analytic application performance model.

Each application phase is characterised the way the paper's motivation
study (section II) looks at codes: how much of its time is core-clock
bound, uncore/latency bound, memory-bandwidth bound, or insensitive to
frequency (I/O, MPI wait floor, GPU kernels).  A profile is *anchored*
at a reference measurement — the paper's own Table II / Table V rows:
iteration time, CPI, GB/s and DC node power at the nominal core clock
with the uncore at its hardware maximum.

From the anchor, iteration time at any other operating point follows

    t(f_c, f_u) = t_ref * [ s_core  · f_c_ref / f_c
                          + s_unc   · f_u_ref / f_u
                          + s_mem   · BW(f_u_ref) / BW(f_u)
                          + s_fixed ]

with the four shares summing to one.  This is the classic
compute/stall decomposition used by the model-based UFS literature the
paper cites ([20], [22]): CPU-bound codes (large ``s_core``) barely
react to the uncore; memory-bound codes (large ``s_unc + s_mem``) pay
both CPI and GB/s penalties when the uncore drops — exactly the
phenomenology of the paper's Figure 1.

Hardware counters derive from the anchor too: the instruction count per
iteration is fixed (the work does not change with frequency), cycles
are ``t · f_c``, so measured CPI and GB/s respond to frequency the way
the real counters do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import HardwareError
from ..hw.dram import DramConfig
from ..hw.node import Node, OperatingPoint
from ..hw.units import CACHE_LINE_BYTES

__all__ = ["PhaseProfile", "IterationCounters", "IterationPlan", "CACHE_LINE_BYTES"]

#: activity factor of cores spinning at the MPI barrier, relative to
#: the phase's compute activity.
_WAIT_ACTIVITY_FACTOR = 0.5


@dataclass(frozen=True)
class IterationCounters:
    """Ground-truth hardware-counter increments for one iteration."""

    seconds: float
    instructions: float
    cycles: float
    bytes_transferred: float
    avx512_instructions: float


@dataclass(frozen=True)
class IterationPlan:
    """One iteration's noise-free physics under fixed MSR state.

    Built by :meth:`PhaseProfile.plan`; valid until the node's MSR state
    changes.  Every iteration time ``t`` of the plan shares the same
    operating point and counter increments; only cycles and traffic
    scale with ``t``.
    """

    #: compute operating point at the sustained clock, zero traffic.
    op: OperatingPoint
    #: deterministic iteration time (before the noise factor), seconds.
    t_det: float
    #: per-iteration counter increments (time-invariant).
    instructions: float
    nbytes: float
    avx512: float

    def loaded(self, seconds: float) -> OperatingPoint:
        """The compute operating point of an iteration lasting ``seconds``."""
        return replace(self.op, traffic_gbs=self.nbytes / seconds / 1e9)

    def counters(self, seconds: float) -> IterationCounters:
        """Counter increments of an iteration lasting ``seconds``."""
        op = self.op
        return IterationCounters(
            seconds=seconds,
            instructions=self.instructions,
            cycles=seconds * op.effective_core_ghz * 1e9 * op.n_active_cores,
            bytes_transferred=self.nbytes,
            avx512_instructions=self.avx512,
        )


@dataclass(frozen=True)
class PhaseProfile:
    """One application phase, anchored at a reference measurement.

    Parameters
    ----------
    name:
        Phase name for traces (e.g. ``"bt-mz.solver"``).
    ref_iteration_s, ref_cpi, ref_gbs, ref_dc_power_w:
        The anchor: per-iteration wall time, aggregate CPI, node memory
        traffic and DC node power measured at the nominal core clock
        and maximum uncore clock (the paper's Table II / V rows).
    s_core, s_unc, s_mem:
        Time shares at the anchor point that scale with the core clock,
        the uncore clock, and the achievable memory bandwidth; the
        remainder ``1 - s_core - s_unc - s_mem`` is frequency-invariant
        (MPI floor, I/O, GPU kernels).
    vpi:
        AVX-512 fraction of retired instructions (the paper's VPI).
    n_active_cores:
        Cores doing application work per node; ``None`` = all cores.
    hw_active_fraction:
        What the HW UFS monitor counts as busy (cores spinning in MPI
        or on a GPU handle look mostly idle to it); ``None`` derives it
        from the active-core count.
    uncore_demand:
        LLC/IMC pressure hint for the HW UFS controller, 0..1.
    gpus_busy, gpu_utilisation:
        GPU offload activity (CUDA kernels).
    mpi_events:
        Per-iteration MPI call-type sequence; this is the stream DynAIS
        watches for periodicity.  Empty for non-MPI codes (EARL then
        falls back to time-guided mode).
    """

    name: str
    ref_iteration_s: float
    ref_cpi: float
    ref_gbs: float
    ref_dc_power_w: float
    s_core: float
    s_unc: float
    s_mem: float
    vpi: float = 0.0
    n_active_cores: int | None = None
    hw_active_fraction: float | None = None
    hw_follow_factor: float | None = None
    uncore_demand: float = 0.0
    gpus_busy: int = 0
    gpu_utilisation: float = 1.0
    mpi_events: tuple[int, ...] = ()
    #: calibrated per-core dynamic activity; solved by ``calibrate_activity``.
    activity: float = field(default=1.0)
    #: whether the anchor power is a real measurement to invert; synthetic
    #: profiles set their activity directly and skip calibration.
    calibrate_power: bool = True

    def __post_init__(self) -> None:
        for attr in ("ref_iteration_s", "ref_cpi", "ref_dc_power_w"):
            if getattr(self, attr) <= 0:
                raise HardwareError(f"{self.name}: {attr} must be positive")
        if self.ref_gbs < 0:
            raise HardwareError(f"{self.name}: ref_gbs cannot be negative")
        for attr in ("s_core", "s_unc", "s_mem"):
            if getattr(self, attr) < 0:
                raise HardwareError(f"{self.name}: {attr} cannot be negative")
        if self.s_core + self.s_unc + self.s_mem > 1.0 + 1e-9:
            raise HardwareError(
                f"{self.name}: time shares sum to "
                f"{self.s_core + self.s_unc + self.s_mem:.3f} > 1"
            )
        if not 0.0 <= self.vpi <= 1.0:
            raise HardwareError(f"{self.name}: vpi must be in [0, 1]")

    # -- derived anchor quantities -------------------------------------------

    @property
    def s_fixed(self) -> float:
        """Frequency-invariant time share."""
        return max(0.0, 1.0 - self.s_core - self.s_unc - self.s_mem)

    def bytes_per_iteration(self) -> float:
        """Main-memory traffic per iteration (invariant)."""
        return self.ref_gbs * 1e9 * self.ref_iteration_s

    def instructions_per_iteration(self, *, ref_core_ghz: float, n_cores: int) -> float:
        """Instruction count per iteration (invariant).

        Derived from the anchor: aggregate unhalted cycles at the
        reference divided by the reference CPI.
        """
        active = self.n_active_cores if self.n_active_cores is not None else n_cores
        cycles = self.ref_iteration_s * ref_core_ghz * 1e9 * active
        return cycles / self.ref_cpi

    # -- the time model ---------------------------------------------------------

    def iteration_time_s(
        self,
        *,
        f_core_ghz: float,
        f_uncore_ghz: float,
        ref_core_ghz: float,
        ref_uncore_ghz: float,
        dram: DramConfig,
    ) -> float:
        """Iteration wall time at an arbitrary operating point."""
        if f_core_ghz <= 0 or f_uncore_ghz <= 0:
            raise HardwareError(f"{self.name}: frequencies must be positive")
        bw_ratio = dram.bandwidth_scale(ref_uncore_ghz) / dram.bandwidth_scale(
            f_uncore_ghz
        )
        return self.ref_iteration_s * (
            self.s_core * ref_core_ghz / f_core_ghz
            + self.s_unc * ref_uncore_ghz / f_uncore_ghz
            + self.s_mem * bw_ratio
            + self.s_fixed
        )

    # -- per-iteration execution on a node ----------------------------------------

    @staticmethod
    def ref_uncore_ghz(node: Node) -> float:
        """Uncore frequency of the anchor measurement: the silicon max."""
        return node.sockets[0].dies[0].hw_max_ghz

    def operating_point(self, node: Node, *, effective_core_ghz: float) -> OperatingPoint:
        """Build the node operating point for this phase."""
        n_cores = node.config.n_cores
        active = self.n_active_cores if self.n_active_cores is not None else n_cores
        return OperatingPoint(
            n_active_cores=active,
            activity=self.activity,
            vpi=self.vpi,
            traffic_gbs=0.0,  # filled per iteration once time is known
            effective_core_ghz=effective_core_ghz,
            uncore_demand=self.uncore_demand,
            hw_active_fraction=self.hw_active_fraction,
            hw_follow_factor=self.hw_follow_factor,
            gpus_busy=self.gpus_busy,
            gpu_utilisation=self.gpu_utilisation,
        )

    def plan(self, node: Node, *, clamp_ghz: float | None = None) -> IterationPlan:
        """Derive one iteration's noise-free physics at the node's MSR state.

        The only place the per-iteration chain is written: licence
        clamp, throttle clamp, hardware UFS convergence (its 10 ms
        period is far below iteration durations, so it converges
        first), RAPL package-cap descent, then the time model.  The
        UFS step sets the node's uncore ratios; nothing else is
        committed to the sensors.

        ``clamp_ghz`` caps the sustained core clock below the programmed
        target for this iteration — a thermal-throttle event (PROCHOT),
        injected by the fault layer; the programmed MSR state is
        untouched, exactly like real thermal throttling.
        """
        ref_core_ghz = self._reference_effective_ghz(node)
        eff_ghz = node.sockets[0].effective_freq_ghz(self.vpi)
        if clamp_ghz is not None:
            eff_ghz = min(eff_ghz, clamp_ghz)
        node.run_ufs(self.operating_point(node, effective_core_ghz=eff_ghz))
        f_unc = node.uncore_freq_ghz
        eff_ghz = self._power_capped_ghz(
            node, eff_ghz, f_unc, ref_core_ghz=ref_core_ghz
        )
        t_det = self.iteration_time_s(
            f_core_ghz=eff_ghz,
            f_uncore_ghz=f_unc,
            ref_core_ghz=ref_core_ghz,
            ref_uncore_ghz=self.ref_uncore_ghz(node),
            dram=node.config.dram,
        )
        instr = self.instructions_per_iteration(
            ref_core_ghz=ref_core_ghz, n_cores=node.config.n_cores
        )
        return IterationPlan(
            op=self.operating_point(node, effective_core_ghz=eff_ghz),
            t_det=t_det,
            instructions=instr,
            nbytes=self.bytes_per_iteration(),
            avx512=self.vpi * instr,
        )

    def wait_point(self, node: Node) -> OperatingPoint:
        """Operating point of cores spinning in the MPI runtime at the
        barrier: reduced activity, no vector work, no traffic."""
        eff_ghz = node.sockets[0].effective_freq_ghz(0.0)
        return replace(
            self.operating_point(node, effective_core_ghz=eff_ghz),
            activity=self.activity * _WAIT_ACTIVITY_FACTOR,
            traffic_gbs=0.0,
            vpi=0.0,
        )

    def execute_iteration(
        self, node: Node, *, noise: float = 1.0, clamp_ghz: float | None = None
    ) -> IterationCounters:
        """Run one iteration on a node: advance sensors, return counters."""
        plan = self.plan(node, clamp_ghz=clamp_ghz)
        t = plan.t_det * noise
        node.advance(plan.loaded(t), t)
        return plan.counters(t)

    def _power_capped_ghz(
        self,
        node: Node,
        eff_ghz: float,
        f_unc_ghz: float,
        *,
        ref_core_ghz: float,
    ) -> float:
        """RAPL PL1 enforcement: throttle cores until the package fits.

        Mirrors the running-average power limiting of real RAPL, at
        iteration granularity: lower the sustained core clock in
        100 MHz steps until every socket's predicted package power is
        at or under the armed limit (or the floor is reached).  The
        interesting system effect: lowering the *uncore* frees package
        budget, so an explicit-UFS policy under a power cap buys the
        cores headroom — see ``benchmarks/test_powercap.py``.
        """
        cap_w = node.sockets[0].msr.read_pkg_power_limit_w()
        if cap_w is None:
            return eff_ghz
        min_ghz = node.config.pstates.min_ghz
        ghz = eff_ghz
        while ghz > min_ghz + 1e-9:
            t = self.iteration_time_s(
                f_core_ghz=ghz,
                f_uncore_ghz=f_unc_ghz,
                ref_core_ghz=ref_core_ghz,
                ref_uncore_ghz=self.ref_uncore_ghz(node),
                dram=node.config.dram,
            )
            op = replace(
                self.operating_point(node, effective_core_ghz=ghz),
                traffic_gbs=self.bytes_per_iteration() / t / 1e9,
            )
            if max(node.power(op).pck_w) <= cap_w + 1e-9:
                return ghz
            ghz = round(ghz - 0.1, 10)
        return min_ghz

    def _reference_effective_ghz(self, node: Node) -> float:
        """Effective core clock of the anchor measurement.

        The anchor was taken at the nominal target; AVX-512 work was
        licence-clamped even then (the DGEMM case), so the reference
        effective clock blends the nominal and licence clocks by VPI.
        """
        ps = node.config.pstates
        f_req = ps.nominal_ghz
        f_avx = min(f_req, ps.avx512_max_ghz)
        if self.vpi == 0.0 or f_avx == f_req:
            return f_req
        return 1.0 / ((1.0 - self.vpi) / f_req + self.vpi / f_avx)

    # -- calibration -----------------------------------------------------------

    def calibrate_activity(self, node: Node) -> "PhaseProfile":
        """Solve the free power knob so the anchor power is reproduced.

        For CPU workloads the free knob is the per-core dynamic
        *activity*; for GPU-offload workloads (whose host side is a
        single spinning core with negligible power swing) it is the GPU
        *utilisation*.  Node DC power is affine in either knob, so the
        solve is closed-form: evaluate at 0 and 1 and interpolate.  A
        target power outside the achievable range indicates a
        mis-specified profile and raises.
        """
        if not self.calibrate_power:
            return self
        eff_ghz = self._reference_effective_ghz(node)
        knob = "gpu_utilisation" if self.gpus_busy > 0 else "activity"

        def dc_at(x: float) -> float:
            op = replace(
                self.operating_point(node, effective_core_ghz=eff_ghz),
                traffic_gbs=self.ref_gbs,
                **{knob: x},
            )
            return node.power(op).dc_w

        p0, p1 = dc_at(0.0), dc_at(1.0)
        if math.isclose(p0, p1):
            raise HardwareError(
                f"{self.name}: power is insensitive to {knob}; cannot calibrate"
            )
        x = (self.ref_dc_power_w - p0) / (p1 - p0)
        hi = 1.0 if knob == "gpu_utilisation" else 2.0
        if not -0.05 <= x <= hi:
            raise HardwareError(
                f"{self.name}: calibrated {knob} {x:.2f} is outside the "
                f"plausible range; anchor power {self.ref_dc_power_w} W vs "
                f"model span [{p0:.0f}, {p1:.0f}] W at {knob} 0..1"
            )
        return replace(self, **{knob: max(x, 0.02)})
