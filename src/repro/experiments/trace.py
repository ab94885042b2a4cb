"""Run-trace analysis: frequency timelines and descent summaries.

Turns a :class:`~repro.sim.result.RunResult` into human-readable
artefacts: an ASCII timeline of the CPU/uncore frequencies (the shape
of the figure-2 state machine in action) and a per-decision summary
that pairs each policy step with the signature that triggered it.

Timelines render from telemetry: the run must have been executed with
``telemetry=True``, which records per-node ``engine/freq_sample``
events after every iteration and per-node EARL decisions.

Sparkline axes are derived from the run's own hardware description
(the P-state table and the silicon uncore range carried on
:class:`RunResult`), never hardcoded: the old fixed 1.0-2.6 GHz axis
matched the Gold 6148 CPU range only by coincidence and was wrong for
its IMC (1.2-2.4 GHz — the bottom bar row could never be reached and
the top fifth was dead space), and silently mis-scaled any run on a
different P-state table.
"""

from __future__ import annotations

from ..ear.policies.api import PolicyState
from ..sim.result import RunResult

__all__ = ["render_timeline", "descent_summary", "settled_imc_max_ghz"]

_BARS = " ▁▂▃▄▅▆▇█"


def _sparkline(values: list[float], lo: float, hi: float) -> str:
    if hi <= lo:
        return "█" * len(values)
    out = []
    for v in values:
        idx = int(round((v - lo) / (hi - lo) * (len(_BARS) - 1)))
        out.append(_BARS[max(0, min(idx, len(_BARS) - 1))])
    return "".join(out)


def _check_node(result: RunResult, node: int) -> None:
    if not 0 <= node < result.n_nodes:
        raise ValueError(f"node {node} out of range for a {result.n_nodes}-node run")


def _node_samples(result: RunResult, node: int) -> list[tuple[float, float]]:
    """``(cpu_target_ghz, imc_freq_ghz)`` per iteration for one node,
    from its telemetry ``engine/freq_sample`` stream."""
    samples = []
    for e in result.events:
        if e.node == node and e.subsystem == "engine" and e.kind == "freq_sample":
            p = e.payload_dict
            samples.append((float(p["cpu_target_ghz"]), float(p["imc_freq_ghz"])))
    if not samples:
        raise ValueError(
            f"run has no frequency samples for node {node}; execute it "
            "with telemetry=True"
        )
    return samples


def _axis(
    range_ghz: tuple[float, float] | None, values: list[float]
) -> tuple[float, float]:
    """Sparkline axis: the hardware range when the run recorded it,
    otherwise the data extent (old results, hand-built fixtures)."""
    if range_ghz is not None:
        return range_ghz
    return min(values), max(values)


def render_timeline(result: RunResult, *, width: int = 72, node: int = 0) -> str:
    """ASCII timeline of one node's CPU target and uncore frequency.

    ``node`` selects the node (default 0) and is validated against the
    run's size; the rendered header names it, so a single-node view of
    a multi-node run can no longer masquerade as the whole job.
    Raises :class:`ValueError` when the run carries no samples for that
    node (an empty chart would silently mislead).
    """
    _check_node(result, node)
    samples = _node_samples(result, node)
    # resample to the requested width by picking evenly spaced samples
    if len(samples) > width:
        step = len(samples) / width
        samples = [samples[int(i * step)] for i in range(width)]
    cpu = [c for c, _ in samples]
    imc = [i for _, i in samples]
    cpu_lo, cpu_hi = _axis(result.cpu_freq_range_ghz, cpu)
    imc_lo, imc_hi = _axis(result.imc_freq_range_ghz, imc)
    lines = [
        f"{result.workload}: node {node} frequency timeline over "
        f"{result.time_s:.0f} s (policy: {result.policy})",
        f"  cpu [{min(cpu):.1f}-{max(cpu):.1f} GHz, axis {cpu_lo:.1f}-{cpu_hi:.1f}] "
        f"{_sparkline(cpu, cpu_lo, cpu_hi)}",
        f"  imc [{min(imc):.1f}-{max(imc):.1f} GHz, axis {imc_lo:.1f}-{imc_hi:.1f}] "
        f"{_sparkline(imc, imc_lo, imc_hi)}",
    ]
    return "\n".join(lines)


def descent_summary(result: RunResult, *, node: int = 0) -> list[dict]:
    """One row per policy decision on the selected node.

    Pairs each step of the state machine with the observable that drove
    it — the raw material of the paper's figure-2 narrative.  Node 0
    reads the exact :class:`PolicyDecision` trace; other nodes rebuild
    the rows from their telemetry ``earl/decision`` events (available
    when the run executed with ``telemetry=True``).
    """
    _check_node(result, node)
    rows = []
    if node == 0 and result.decisions:
        for d in result.decisions:
            rows.append(
                {
                    "node": node,
                    "at_s": d.at_s,
                    "earl_state": d.earl_state.name,
                    "policy_state": d.policy_state.name if d.policy_state else "",
                    "cpu_ghz": d.freqs.cpu_ghz if d.freqs else None,
                    "imc_max_ghz": d.freqs.imc_max_ghz if d.freqs else None,
                    "cpi": d.signature.cpi,
                    "gbs": d.signature.gbs,
                    "dc_power_w": d.signature.dc_power_w,
                }
            )
        return rows
    if not result.has_telemetry:
        if node == 0:
            return rows  # genuinely no decisions (no-policy run)
        raise ValueError(
            f"run carries no decision trace for node {node}; execute it "
            "with telemetry=True"
        )
    for e in result.events:
        if e.node != node or e.subsystem != "earl" or e.kind != "decision":
            continue
        p = e.payload_dict
        rows.append(
            {
                "node": node,
                "at_s": e.time_s,
                "earl_state": p.get("earl_state"),
                "policy_state": p.get("policy_state") or "",
                "cpu_ghz": p.get("cpu_ghz"),
                "imc_max_ghz": p.get("imc_max_ghz"),
                "cpi": p.get("cpi"),
                "gbs": p.get("gbs"),
                "dc_power_w": p.get("dc_power_w"),
            }
        )
    return rows


def settled_imc_max_ghz(result: RunResult) -> float | None:
    """The uncore ceiling after the last READY decision, if any."""
    for d in reversed(result.decisions):
        if d.policy_state is PolicyState.READY and d.freqs is not None:
            return d.freqs.imc_max_ghz
    return None
