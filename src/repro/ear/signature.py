"""Application signatures.

The signature is EAR's central data structure: "a set of performance
and power metrics characterising application computational behaviour",
computed per measurement window and fed to the energy policy.  The
fields are exactly the ones the paper's section V lists as model
inputs — DC node power, iteration time, CPI, TPI, GB/s and VPI — plus
the average CPU/IMC frequencies the evaluation tables report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ..errors import SignatureError
from ..hw.counters import CounterSnapshot

__all__ = ["Signature", "relative_change", "signature_changed"]


@dataclass(frozen=True)
class Signature:
    """One measurement window's characterisation of the application."""

    #: average wall time of one application iteration, seconds.
    iteration_time_s: float
    #: average DC node power over the window, watts.
    dc_power_w: float
    #: cycles per instruction.
    cpi: float
    #: main-memory transactions (cache lines) per instruction.
    tpi: float
    #: memory bandwidth, GB/s.
    gbs: float
    #: AVX-512 fraction of retired instructions.
    vpi: float
    #: average CPU frequency over the window, GHz (all cores).
    avg_cpu_freq_ghz: float
    #: average IMC (uncore) frequency over the window, GHz.
    avg_imc_freq_ghz: float
    #: number of application iterations aggregated.
    iterations: int = 1

    def __post_init__(self) -> None:
        # NaN compares False against every bound below, so corrupted
        # counter reads must be caught explicitly before feeding a
        # policy: every metric has to be a finite number.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise SignatureError(f"{f.name} is not finite: {value!r}")
        if self.iteration_time_s <= 0:
            raise SignatureError("iteration time must be positive")
        if self.dc_power_w <= 0:
            raise SignatureError("DC power must be positive")
        if self.cpi <= 0:
            raise SignatureError("CPI must be positive")
        if self.tpi < 0 or self.gbs < 0:
            raise SignatureError("TPI/GBs cannot be negative")
        if not 0.0 <= self.vpi <= 1.0:
            raise SignatureError(f"VPI {self.vpi} outside [0, 1]")

    @property
    def energy_per_iteration_j(self) -> float:
        """Node energy per application iteration."""
        return self.dc_power_w * self.iteration_time_s

    @classmethod
    def from_window(
        cls,
        window: CounterSnapshot,
        *,
        dc_energy_j: float,
        dc_seconds: float,
        avg_cpu_freq_ghz: float,
        avg_imc_freq_ghz: float,
    ) -> "Signature":
        """Assemble a signature from a counter window + energy reading.

        ``dc_energy_j``/``dc_seconds`` come from differencing two Node
        Manager reads (and their timestamps — the counter only updates
        at 1 Hz, so dividing by the *latched* interval is what keeps
        the power estimate unbiased).
        """
        if window.iterations <= 0:
            raise SignatureError("cannot build a signature from an empty window")
        if dc_seconds <= 0:
            raise SignatureError("energy window has no duration")
        return cls(
            iteration_time_s=window.seconds_per_iteration,
            dc_power_w=dc_energy_j / dc_seconds,
            cpi=window.cpi,
            tpi=window.tpi,
            gbs=window.gbs,
            vpi=window.vpi,
            avg_cpu_freq_ghz=avg_cpu_freq_ghz,
            avg_imc_freq_ghz=avg_imc_freq_ghz,
            iterations=window.iterations,
        )


def relative_change(old: float, new: float) -> float:
    """|new - old| / old, tolerant of tiny denominators."""
    if abs(old) < 1e-12:
        return 0.0 if abs(new) < 1e-12 else float("inf")
    return abs(new - old) / abs(old)


def signature_changed(ref: Signature, cur: Signature, threshold: float) -> bool:
    """EARL's phase-change test: CPI or GB/s moved beyond the threshold.

    The paper (section V-B, extension 6) uses CPI and GB/s variations to
    decide whether the application entered a new phase, with a 15 %
    default tolerance.
    """
    if relative_change(ref.cpi, cur.cpi) > threshold:
        return True
    # GB/s change only counts when there is non-trivial traffic to compare:
    # a busy-wait's 0.1 GB/s jitter must not look like a phase change.
    if min(ref.gbs, cur.gbs) > 0.5 and relative_change(ref.gbs, cur.gbs) > threshold:
        return True
    return False
