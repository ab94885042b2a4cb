"""The EAR learning phase: steady-state measurement of training kernels.

On a real cluster EAR trains its projection coefficients by running a
kernel battery at every P-state on every node type ("compute
coefficients" jobs).  Here the battery is the synthetic corpus from
:mod:`repro.workloads.generator` and the "measurement" is the analytic
steady state of the hardware model — equivalent to running the engine
to convergence, but exact and fast.
"""

from __future__ import annotations

from ...hw.msr import UncoreRatioLimit
from ...hw.node import Node, NodeConfig
from ...hw.units import ghz_to_ratio
from ...workloads.phase import CACHE_LINE_BYTES, PhaseProfile
from ..signature import Signature

__all__ = ["steady_state_signature"]


def steady_state_signature(
    profile: PhaseProfile,
    node_config: NodeConfig,
    *,
    f_cpu_ghz: float,
    f_uncore_ghz: float | None = None,
) -> Signature:
    """Noise-free signature of a profile at a pinned core clock.

    One :meth:`PhaseProfile.plan` on a fresh node.  ``f_uncore_ghz =
    None`` lets the hardware UFS controller choose, as it would during
    the learning phase; a value pins the uncore.  Used by coefficient
    training and as ground truth in tests.
    """
    node = Node(node_config)
    node.set_core_freq(f_cpu_ghz, privileged=True)
    if f_uncore_ghz is not None:
        ratio = ghz_to_ratio(f_uncore_ghz)
        node.set_uncore_limits(
            UncoreRatioLimit(min_ratio=ratio, max_ratio=ratio), privileged=True
        )
    plan = profile.plan(node)
    t = plan.t_det
    op = plan.loaded(t)
    cycles = plan.counters(t).cycles
    return Signature(
        iteration_time_s=t,
        dc_power_w=node.power(op).dc_w,
        cpi=cycles / plan.instructions,
        tpi=(plan.nbytes / CACHE_LINE_BYTES) / plan.instructions,
        gbs=op.traffic_gbs,
        vpi=profile.vpi,
        avg_cpu_freq_ghz=op.effective_core_ghz,
        avg_imc_freq_ghz=node.uncore_freq_ghz,
    )
