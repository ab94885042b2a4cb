"""Least-squares fitting of projection coefficients from grid runs.

This is the numerical core of the learning phase: given the signatures
a :class:`~repro.learning.campaign.LearningCampaign` measured across
the P-state × uncore grid, fit every (from, to) P-state pair of the
EAR projection model

    CPI(to)   = A · CPI(from)   + B · TPI(from) + C
    Power(to) = D · Power(from) + E · TPI(from) + F

by ordinary least squares, exactly as EAR's offline ``compute
coefficients`` jobs do, and attach a goodness-of-fit record
(:class:`~repro.ear.models.TableQuality`) so a badly conditioned fit
cannot be mistaken for a trustworthy one.

Observations are matched between the *from* and *to* P-states on their
``(kernel, uncore, seed)`` coordinates — the regression needs the same
physical workload measured at both clocks.  AVX-512-dense kernels
(``vpi`` above :data:`MAX_SCALAR_VPI`) are excluded from the scalar
regressions: their effective clock is licence-clamped, so pairing them
by *requested* P-state would poison the fit.  They are used instead to
*measure* the licence frequency, which is recorded in the table quality.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from ..errors import LearningError
from ..ear.models import CoefficientTable, PairQuality, TableQuality, fit_pair
from ..ear.signature import Signature
from ..hw.node import NodeConfig
from .grid import GridObservation

__all__ = ["MAX_SCALAR_VPI", "MIN_PAIR_OBSERVATIONS", "fit_table"]

#: observations with a larger AVX-512 instruction fraction are excluded
#: from the scalar CPI/power regressions (licence clamping decouples
#: their effective clock from the requested P-state).
MAX_SCALAR_VPI = 0.5

#: fewest matched (from, to) observation pairs a regression accepts;
#: below this the 3-parameter fit is underdetermined noise.
MIN_PAIR_OBSERVATIONS = 3


def _r_squared(y: np.ndarray, pred: np.ndarray) -> float:
    """Coefficient of determination with a zero-variance guard.

    A degenerate target (all observations identical) has no variance to
    explain: the fit is perfect if the residuals vanish and worthless
    otherwise, without dividing by zero.
    """
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot < 1e-12:
        return 1.0 if ss_res < 1e-9 else 0.0
    return 1.0 - ss_res / ss_tot


def _measured_licence_ghz(avx_obs: Sequence[GridObservation]) -> float | None:
    """The AVX-512 licence frequency as the silicon actually enforced it.

    Dense-AVX runs requesting clocks above the licence limit all plateau
    at the same effective frequency; the highest average clock any AVX
    observation sustained *is* that plateau (requests below the licence
    run where they asked, which is lower by construction).
    """
    if not avx_obs:
        return None
    return max(o.signature.avg_cpu_freq_ghz for o in avx_obs)


def fit_table(
    observations: Iterable[GridObservation],
    node_config: NodeConfig,
    *,
    max_scalar_vpi: float = MAX_SCALAR_VPI,
) -> CoefficientTable:
    """Fit a complete coefficient table from grid observations.

    Raises :class:`~repro.errors.LearningError` when any P-state pair
    has too few matched observations — an incomplete table would fail
    every projection at runtime, so the fit fails loudly instead.
    """
    obs = tuple(observations)
    if not obs:
        raise LearningError("cannot fit coefficients from an empty grid")
    freqs = tuple(node_config.pstates.frequencies_ghz)
    n_states = len(freqs)

    scalar = [o for o in obs if o.signature.vpi <= max_scalar_vpi]
    avx = [o for o in obs if o.signature.vpi > max_scalar_vpi]
    # by_ps[p][(kernel, uncore, seed)] = signature measured at P-state p
    by_ps: dict[int, dict[tuple, Signature]] = defaultdict(dict)
    for o in scalar:
        by_ps[o.pstate][(o.kernel, o.uncore_ghz, o.seed)] = o.signature
    missing = [p for p in range(n_states) if not by_ps.get(p)]
    if missing:
        raise LearningError(
            f"grid has no scalar observations at P-states {missing}; "
            f"the table must cover all {n_states} states"
        )

    table = CoefficientTable(node_config.name, freqs)
    table.source = "fitted"
    pair_quality: list[PairQuality] = []
    for from_ps in range(n_states):
        for to_ps in range(n_states):
            if to_ps == from_ps:
                continue
            keys = sorted(set(by_ps[from_ps]) & set(by_ps[to_ps]))
            if len(keys) < MIN_PAIR_OBSERVATIONS:
                raise LearningError(
                    f"P-state pair {from_ps} -> {to_ps} has only "
                    f"{len(keys)} matched observations "
                    f"(need {MIN_PAIR_OBSERVATIONS}); widen the grid"
                )
            src = [by_ps[from_ps][k] for k in keys]
            dst = [by_ps[to_ps][k] for k in keys]
            coeffs, pred_cpi, pred_pwr = fit_pair(src, dst)
            table.set(from_ps, to_ps, coeffs)

            # training-set projection errors via the same identities the
            # runtime model uses (self-consistency, not held-out error).
            ratio = freqs[from_ps] / freqs[to_ps]
            time_errs = [
                abs(s.iteration_time_s * (pc / s.cpi) * ratio - d.iteration_time_s)
                / d.iteration_time_s
                for s, d, pc in zip(src, dst, pred_cpi)
            ]
            pwr_errs = [
                abs(pw - d.dc_power_w) / d.dc_power_w
                for d, pw in zip(dst, pred_pwr)
            ]
            pair_quality.append(
                PairQuality(
                    from_ps=from_ps,
                    to_ps=to_ps,
                    n_obs=len(keys),
                    r2_cpi=_r_squared(np.array([d.cpi for d in dst]), pred_cpi),
                    r2_power=_r_squared(
                        np.array([d.dc_power_w for d in dst]), pred_pwr
                    ),
                    max_rel_time_err=float(max(time_errs)),
                    max_rel_power_err=float(max(pwr_errs)),
                )
            )

    table.quality = TableQuality(
        n_observations=len(obs),
        kernels=tuple(sorted({o.kernel for o in obs})),
        min_r2_cpi=min(q.r2_cpi for q in pair_quality),
        min_r2_power=min(q.r2_power for q in pair_quality),
        max_rel_time_err=max(q.max_rel_time_err for q in pair_quality),
        max_rel_power_err=max(q.max_rel_power_err for q in pair_quality),
        avx512_licence_ghz=_measured_licence_ghz(avx),
        pairs=tuple(pair_quality),
    )
    return table
