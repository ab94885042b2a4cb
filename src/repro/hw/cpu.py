"""Socket (package) model: cores, DVFS target, AVX-512 throttling.

One :class:`Socket` owns an MSR file, its uncore dies and the core
frequency state.  The core clock is set through ``IA32_PERF_CTL``
(userspace-governor style, as EAR does through EARD) and the *effective*
clock a workload sees accounts for the AVX-512 licence limit: with a
high fraction of 512-bit instructions in flight the silicon cannot hold
frequencies above the licence frequency regardless of what was
requested.

The socket also keeps aperf/mperf-style accounting so the node can
report the time-weighted average CPU frequency across all cores —
including halted/idle cores, which is how the paper computes the
"avg CPU frequency" rows of Tables IV and VI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FrequencyError
from .msr import (
    MSR_DRAM_ENERGY_STATUS,
    MSR_IA32_ENERGY_PERF_BIAS,
    MSR_IA32_PERF_CTL,
    MSR_IA32_PERF_STATUS,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    MSR_RAPL_POWER_UNIT,
    MSR_UNCORE_RATIO_LIMIT,
    MsrFile,
    UncoreRatioLimit,
)
from .pstates import PStateTable
from .uncore import UncoreDomain
from .units import ghz_to_ratio, ratio_to_ghz

__all__ = ["Socket"]

#: Fraction of cycles even a fully busy core spends halted (interrupts,
#: scheduler ticks); makes the measured average frequency land slightly
#: below the programmed one, as in the paper's tables (2.38 vs 2.40).
_BUSY_HALT_FRACTION = 0.008


@dataclass
class Socket:
    """One processor package.

    Parameters
    ----------
    pstates:
        DVFS capability table of this processor model.
    socket_id:
        Index within the node (0 or 1 on the paper's two-socket nodes).
    idle_core_freq_ghz:
        The frequency idle cores report; with the ``powersave`` governor
        real idle cores sink to the minimum P-state.
    """

    pstates: PStateTable
    socket_id: int = 0
    idle_core_freq_ghz: float | None = None
    msr: MsrFile = field(default_factory=MsrFile)
    #: the package's uncore dies, die 0 first; one on single-die parts,
    #: several on Granite Rapids-class processors.
    dies: tuple[UncoreDomain, ...] = field(default_factory=lambda: (UncoreDomain(),))
    #: True when software pinned the core ratio (EAR acquired control);
    #: False means the out-of-the-box HWP governor drives frequency.
    pinned: bool = False
    #: clock the busy cores last sustained (aperf/mperf view); AVX-512
    #: licence throttling makes this differ from the programmed target.
    last_effective_ghz: float = 0.0
    _freq_seconds: float = 0.0
    _seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.idle_core_freq_ghz is None:
            self.idle_core_freq_ghz = self.pstates.min_ghz
        for addr in (
            MSR_IA32_PERF_CTL,
            MSR_IA32_PERF_STATUS,
            MSR_IA32_ENERGY_PERF_BIAS,
            MSR_RAPL_POWER_UNIT,
            MSR_PKG_POWER_LIMIT,
            MSR_PKG_ENERGY_STATUS,
            MSR_DRAM_ENERGY_STATUS,
            MSR_UNCORE_RATIO_LIMIT,
        ):
            self.msr.implement(addr)
        # reset values
        self.msr.write_perf_ctl_ratio(
            ghz_to_ratio(self.pstates.nominal_ghz), privileged=True
        )
        self.msr.write(MSR_IA32_ENERGY_PERF_BIAS, 6, privileged=True)
        self.msr.write_uncore_limits(
            UncoreRatioLimit(
                min_ratio=self.dies[0].hw_min_ratio,
                max_ratio=self.dies[0].hw_max_ratio,
            ),
            privileged=True,
        )
        self.msr.on_write(MSR_UNCORE_RATIO_LIMIT, self._uncore_limit_written)
        self.msr.on_write(MSR_IA32_PERF_CTL, self._perf_ctl_written)
        self.pinned = False  # the reset writes above do not count as pinning

    # -- MSR side effects ----------------------------------------------------

    def _uncore_limit_written(self, value: int) -> None:
        # 0x620 is package-scoped: one write clamps every die.
        limits = UncoreRatioLimit.decode(value)
        for die in self.dies:
            die.set_limits(limits)

    def _perf_ctl_written(self, value: int) -> None:
        ratio = (value >> 8) & 0xFF
        lo = ghz_to_ratio(self.pstates.min_ghz)
        hi = ghz_to_ratio(self.pstates.turbo_ghz)
        if not lo <= ratio <= hi:
            raise FrequencyError(
                f"core ratio {ratio} outside supported range {lo}..{hi}"
            )
        self.pinned = True
        self.msr.registers[MSR_IA32_PERF_STATUS] = (ratio & 0xFF) << 8

    # -- frequency views -----------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Cores in this socket."""
        return self.pstates.n_cores

    @property
    def uncore_freq_ghz(self) -> float:
        """Mean current uncore frequency over the package's dies.

        With a single die this is exactly ``dies[0].freq_ghz``
        (``sum([x]) / 1 == x``), so every MSR-path golden is unchanged.
        """
        return sum(d.freq_ghz for d in self.dies) / len(self.dies)

    def average_uncore_freq_ghz(self) -> float:
        """Mean time-weighted average uncore frequency over the dies."""
        return sum(d.average_freq_ghz() for d in self.dies) / len(self.dies)

    @property
    def target_freq_ghz(self) -> float:
        """Frequency programmed through IA32_PERF_CTL."""
        return ratio_to_ghz(self.msr.read_perf_ctl_ratio())

    def set_target_freq(self, freq_ghz: float, *, privileged: bool = False) -> None:
        """Program the core clock (EARD privilege required)."""
        self.msr.write_perf_ctl_ratio(ghz_to_ratio(freq_ghz), privileged=privileged)

    def effective_freq_ghz(self, vpi: float) -> float:
        """Clock the cores actually sustain for a given AVX-512 mix.

        A workload with VPI (vector-per-instruction fraction) ``v``
        alternates between scalar cycles at the requested clock and
        AVX-512 cycles capped at the licence clock; the sustained clock
        is the time-weighted harmonic blend of the two.
        """
        if not 0.0 <= vpi <= 1.0:
            raise FrequencyError(f"vpi must be in [0, 1], got {vpi}")
        f_req = self.target_freq_ghz
        f_avx = min(f_req, self.pstates.avx512_max_ghz)
        if vpi == 0.0 or f_avx == f_req:
            return f_req
        return 1.0 / ((1.0 - vpi) / f_req + vpi / f_avx)

    # -- average frequency accounting -----------------------------------------

    def account(self, seconds: float, *, n_active: int, effective_ghz: float) -> None:
        """Record time spent with ``n_active`` cores at ``effective_ghz``.

        The remaining cores are accounted at the idle frequency, so the
        reported average matches "computed using all the cores".
        """
        if seconds < 0:
            raise FrequencyError("cannot account negative time")
        n_active = min(max(n_active, 0), self.n_cores)
        if n_active > 0:
            self.last_effective_ghz = effective_ghz
        busy = effective_ghz * (1.0 - _BUSY_HALT_FRACTION)
        idle = self.idle_core_freq_ghz
        mean = (n_active * busy + (self.n_cores - n_active) * idle) / self.n_cores
        self._freq_seconds += mean * seconds
        self._seconds += seconds
        for die in self.dies:
            die.account(seconds)

    def average_freq_ghz(self) -> float:
        """Time-weighted average core frequency over all cores."""
        if self._seconds <= 0:
            return self.target_freq_ghz
        return self._freq_seconds / self._seconds

    def reset_accounting(self) -> None:
        """Zero the frequency-accounting accumulators."""
        self._freq_seconds = 0.0
        self._seconds = 0.0
        for die in self.dies:
            die.reset_accounting()
