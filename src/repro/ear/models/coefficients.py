"""Per-node-type projection coefficients and their training.

EAR's energy models (the Bell/Brochard lineage the paper builds on —
refs [8], [9] — as deployed in the 2020 EAR paper) are *per P-state
pair* linear regressions learned once per node type:

    CPI(to)   = A(from,to) · CPI(from)   + B(from,to) · TPI(from) + C(from,to)
    Power(to) = D(from,to) · Power(from) + E(from,to) · TPI(from) + F(from,to)

and the time projection follows from the frequency/CPI identity

    Time(to) = Time(from) · (CPI(to) / CPI(from)) · (f_from / f_to).

The training here mirrors EAR's learning phase: run a workload battery
at every P-state, then least-squares fit each pair.  Coefficient tables
are cached per node type because every EARL instance on the same
hardware shares them (as the real EAR stores them per node class in its
database).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ...errors import ModelError
from ...hw.node import NodeConfig
from ...workloads.generator import training_corpus
from ..signature import Signature
from .training import steady_state_signature

__all__ = [
    "PairCoefficients",
    "PairQuality",
    "TableQuality",
    "CoefficientTable",
    "fit_pair",
    "train_coefficients",
    "clear_cache",
]


@dataclass(frozen=True)
class PairCoefficients:
    """Regression coefficients for one (from, to) P-state pair."""

    a: float  # CPI slope
    b: float  # CPI vs TPI
    c: float  # CPI intercept
    d: float  # power slope
    e: float  # power vs TPI
    f: float  # power intercept

    def project_cpi(self, cpi: float, tpi: float) -> float:
        """Projected CPI at the pair's target P-state."""
        return self.a * cpi + self.b * tpi + self.c

    def project_power(self, power_w: float, tpi: float) -> float:
        """Projected DC power at the pair's target P-state."""
        return self.d * power_w + self.e * tpi + self.f


def fit_pair(
    src: Sequence[Signature], dst: Sequence[Signature]
) -> tuple[PairCoefficients, np.ndarray, np.ndarray]:
    """Least-squares fit of one (from, to) P-state pair.

    ``src[i]`` and ``dst[i]`` are the same workload measured at the
    pair's from and to P-states; the row order is the caller's.  Returns
    the coefficients and their CPI and power predictions on those rows.
    """
    ones = np.ones(len(src))
    tpi = [s.tpi for s in src]
    x = np.column_stack([[s.cpi for s in src], tpi, ones])
    xp = np.column_stack([[s.dc_power_w for s in src], tpi, ones])
    abc, *_ = np.linalg.lstsq(x, np.array([s.cpi for s in dst]), rcond=None)
    def_, *_ = np.linalg.lstsq(xp, np.array([s.dc_power_w for s in dst]), rcond=None)
    coeffs = PairCoefficients(
        a=float(abc[0]),
        b=float(abc[1]),
        c=float(abc[2]),
        d=float(def_[0]),
        e=float(def_[1]),
        f=float(def_[2]),
    )
    return coeffs, x @ abc, xp @ def_


@dataclass(frozen=True)
class PairQuality:
    """Goodness of fit for one (from, to) P-state pair regression."""

    from_ps: int
    to_ps: int
    #: observations (matched kernel × uncore × seed points) behind the fit.
    n_obs: int
    #: coefficient of determination of the CPI regression.
    r2_cpi: float
    #: coefficient of determination of the power regression.
    r2_power: float
    #: worst relative error of the projected iteration time on the
    #: training observations themselves (via the CPI/frequency identity).
    max_rel_time_err: float
    #: worst relative error of the projected DC power.
    max_rel_power_err: float


@dataclass(frozen=True)
class TableQuality:
    """Goodness of fit attached to a whole fitted table.

    The aggregates are the *worst case* over all pairs, so a single
    badly conditioned pair cannot hide behind good averages.
    """

    n_observations: int
    kernels: tuple[str, ...]
    min_r2_cpi: float
    min_r2_power: float
    max_rel_time_err: float
    max_rel_power_err: float
    #: AVX-512 licence frequency as *measured* from the AVX-dense
    #: kernels' effective clock plateau (None when the battery had no
    #: AVX-dense kernel on this node type).
    avx512_licence_ghz: float | None = None
    pairs: tuple[PairQuality, ...] = ()


class CoefficientTable:
    """All pair coefficients for one node type.

    ``source`` says where the numbers came from (``"analytic"`` for the
    in-process training fallback, ``"fitted"`` for tables produced by a
    :class:`repro.learning.LearningCampaign`); ``quality`` carries the
    goodness-of-fit record for fitted tables (None for analytic ones —
    the analytic corpus is exact on its own family by construction).
    """

    def __init__(
        self, node_name: str, pstate_freqs_ghz: tuple[float, ...]
    ) -> None:
        self.node_name = node_name
        self.pstate_freqs_ghz = pstate_freqs_ghz
        self._pairs: dict[tuple[int, int], PairCoefficients] = {}
        self.source: str = "analytic"
        self.quality: TableQuality | None = None

    def set(self, from_ps: int, to_ps: int, coeffs: PairCoefficients) -> None:
        """Store the coefficients for one (from, to) pair."""
        self._pairs[(from_ps, to_ps)] = coeffs

    def get(self, from_ps: int, to_ps: int) -> PairCoefficients:
        """Coefficients for one pair; ModelError when untrained."""
        try:
            return self._pairs[(from_ps, to_ps)]
        except KeyError:
            raise ModelError(
                f"{self.node_name}: no coefficients for P-state pair "
                f"{from_ps} -> {to_ps}; was the learning phase run?"
            ) from None

    def __len__(self) -> int:
        return len(self._pairs)

    def items(self) -> tuple[tuple[tuple[int, int], PairCoefficients], ...]:
        """All ``((from, to), coefficients)`` pairs, sorted."""
        return tuple(sorted(self._pairs.items()))

    def project(
        self, sig: Signature, from_ps: int, to_ps: int
    ) -> tuple[float, float]:
        """Project (iteration_time_s, dc_power_w) from one P-state to another."""
        if from_ps == to_ps:
            return sig.iteration_time_s, sig.dc_power_w
        coeffs = self.get(from_ps, to_ps)
        cpi_to = max(coeffs.project_cpi(sig.cpi, sig.tpi), 1e-6)
        power_to = max(coeffs.project_power(sig.dc_power_w, sig.tpi), 1.0)
        f_from = self.pstate_freqs_ghz[from_ps]
        f_to = self.pstate_freqs_ghz[to_ps]
        time_to = sig.iteration_time_s * (cpi_to / sig.cpi) * (f_from / f_to)
        return time_to, power_to


#: keyed on the frozen config itself, not its name: two node types
#: that share a name but not their physics train two tables.
_CACHE: dict[NodeConfig, CoefficientTable] = {}


def clear_cache() -> None:
    """Drop trained tables (tests that mutate node configs use this)."""
    _CACHE.clear()


def train_coefficients(node_config: NodeConfig) -> CoefficientTable:
    """Run the learning phase for a node type (cached).

    For every profile in the training corpus and every P-state, take
    the steady-state signature with the hardware UFS active (as the
    real learning phase would), then fit each (from, to) pair by least
    squares over the corpus.
    """
    cached = _CACHE.get(node_config)
    if cached is not None:
        return cached

    ps = node_config.pstates
    freqs = tuple(ps.frequencies_ghz)
    corpus = training_corpus(node_config)
    # measurements[p][k] = signature of corpus profile k at P-state p
    measurements: list[list[Signature]] = []
    for p in range(len(freqs)):
        row = [
            steady_state_signature(profile, node_config, f_cpu_ghz=freqs[p])
            for profile in corpus
        ]
        measurements.append(row)

    table = CoefficientTable(node_config.name, freqs)
    for from_ps in range(len(freqs)):
        for to_ps in range(len(freqs)):
            if to_ps != from_ps:
                coeffs, _, _ = fit_pair(measurements[from_ps], measurements[to_ps])
                table.set(from_ps, to_ps, coeffs)
    _CACHE[node_config] = table
    return table
