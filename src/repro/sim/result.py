"""Run results: what one simulated job execution produced.

The result carries both what EAR itself could see (signatures, policy
decisions) and the harness ground truth (exact energies, time-weighted
average frequencies) used to build the paper's tables.  ``to_dict`` /
``to_json`` export everything for external analysis tooling.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..ear.earl import PolicyDecision
from ..ear.signature import Signature
from ..telemetry.recorder import NodeTelemetry, TelemetryEvent, merge_events
from .faults import NodeHealth

__all__ = ["NodeResult", "RunResult"]


@dataclass(frozen=True)
class NodeResult:
    """Ground-truth per-node outcome."""

    node_id: int
    dc_energy_j: float
    pck_energy_j: float
    avg_cpu_freq_ghz: float
    avg_imc_freq_ghz: float
    #: this node's own elapsed time (its simulated clock at job end).
    #: Bulk-synchronous codes end every node at the job wall time, but
    #: accounting divides *this node's* energy by *this node's* seconds,
    #: so per-node power stays correct if the two ever diverge.
    seconds: float = 0.0
    #: whole-run aggregate counters (the paper's per-kernel CPI / GB/s).
    cpi: float = 0.0
    gbs: float = 0.0
    #: robustness record: faults injected and how the runtime reacted
    #: (all-zero on a clean run).
    health: NodeHealth | None = None
    #: structured telemetry snapshot (None when the run was executed
    #: with the default NullRecorder).
    telemetry: NodeTelemetry | None = None


@dataclass(frozen=True)
class RunResult:
    """Outcome of one job execution."""

    workload: str
    n_nodes: int
    policy: str
    seed: int
    #: job wall time (max over nodes, i.e. including barrier waits).
    time_s: float
    nodes: tuple[NodeResult, ...]
    #: node-0 EARL traces (empty for no-policy runs).
    signatures: tuple[Signature, ...] = ()
    decisions: tuple[PolicyDecision, ...] = ()
    #: silicon frequency ranges of the run's node type — (lo, hi) GHz —
    #: so renderers scale axes to the hardware, not to hardcoded bounds.
    cpu_freq_range_ghz: tuple[float, float] | None = None
    imc_freq_range_ghz: tuple[float, float] | None = None

    @property
    def dc_energy_j(self) -> float:
        """Total DC energy over all nodes."""
        return sum(n.dc_energy_j for n in self.nodes)

    @property
    def pck_energy_j(self) -> float:
        """Total package (RAPL PCK scope) energy over all nodes."""
        return sum(n.pck_energy_j for n in self.nodes)

    @property
    def avg_dc_power_w(self) -> float:
        """Average DC power per node (the paper's reporting unit)."""
        if self.time_s <= 0 or not self.nodes:
            return 0.0
        return self.dc_energy_j / self.time_s / len(self.nodes)

    @property
    def avg_pck_power_w(self) -> float:
        """Average RAPL package power per node."""
        if self.time_s <= 0 or not self.nodes:
            return 0.0
        return self.pck_energy_j / self.time_s / len(self.nodes)

    @property
    def avg_cpu_freq_ghz(self) -> float:
        """Run-average effective core frequency, averaged over the nodes."""
        return sum(n.avg_cpu_freq_ghz for n in self.nodes) / len(self.nodes)

    @property
    def avg_imc_freq_ghz(self) -> float:
        """Run-average uncore frequency, averaged over the nodes."""
        return sum(n.avg_imc_freq_ghz for n in self.nodes) / len(self.nodes)

    @property
    def health(self) -> NodeHealth:
        """Job-level robustness record: node healths summed."""
        return NodeHealth.merge([n.health for n in self.nodes if n.health is not None])

    # -- telemetry ------------------------------------------------------

    @property
    def has_telemetry(self) -> bool:
        """True when the run was executed with telemetry recording on."""
        return any(n.telemetry is not None for n in self.nodes)

    @property
    def events(self) -> tuple[TelemetryEvent, ...]:
        """All nodes' telemetry events merged into one timeline."""
        return merge_events(n.telemetry for n in self.nodes if n.telemetry is not None)

    @property
    def cpi(self) -> float:
        """Run-aggregate CPI averaged over nodes."""
        return sum(n.cpi for n in self.nodes) / len(self.nodes)

    @property
    def gbs(self) -> float:
        """Run-aggregate per-node memory bandwidth, GB/s."""
        return sum(n.gbs for n in self.nodes) / len(self.nodes)

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data view of the run (JSON-serialisable)."""
        return {
            "workload": self.workload,
            "n_nodes": self.n_nodes,
            "policy": self.policy,
            "seed": self.seed,
            "time_s": self.time_s,
            "dc_energy_j": self.dc_energy_j,
            "pck_energy_j": self.pck_energy_j,
            "avg_dc_power_w": self.avg_dc_power_w,
            "avg_cpu_freq_ghz": self.avg_cpu_freq_ghz,
            "avg_imc_freq_ghz": self.avg_imc_freq_ghz,
            "health": asdict(self.health),
            "cpu_freq_range_ghz": self.cpu_freq_range_ghz,
            "imc_freq_range_ghz": self.imc_freq_range_ghz,
            # per-node telemetry is exported once, merged, under "events"
            "nodes": [
                {k: v for k, v in asdict(n).items() if k != "telemetry"}
                for n in self.nodes
            ],
            "events": [e.to_dict() for e in self.events],
            "signatures": [asdict(s) for s in self.signatures],
            "decisions": [
                {
                    "at_s": d.at_s,
                    "earl_state": d.earl_state.name,
                    "policy_state": d.policy_state.name if d.policy_state else None,
                    "freqs": asdict(d.freqs) if d.freqs else None,
                    "signature": asdict(d.signature),
                }
                for d in self.decisions
            ],
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """JSON-serialisable summary of the run."""
        return json.dumps(self.to_dict(), indent=indent)
