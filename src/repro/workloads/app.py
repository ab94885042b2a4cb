"""Workload definitions: phases + cluster layout.

A :class:`Workload` bundles everything the experiment harness needs to
launch a job: the node type, how many nodes / processes the paper used,
and the phase sequence with iteration counts.  Profiles are calibrated
lazily (power-model inversion needs a node instance) and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ExperimentError
from ..hw.node import Node, NodeConfig
from .phase import PhaseProfile

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """A runnable job description.

    Attributes
    ----------
    name:
        Identifier used in reports (matches the paper's tables).
    node_config:
        Node type the job runs on.
    n_nodes:
        Nodes allocated (per the paper's evaluation section).
    n_processes:
        MPI ranks; purely descriptive for reports (the per-node share
        of work is already folded into the phase anchors).
    phases:
        ``(profile, n_iterations)`` pairs executed in order on every
        node.  Iteration counts are per phase.
    description:
        One line about what the real application is.
    """

    name: str
    node_config: NodeConfig
    n_nodes: int
    n_processes: int
    phases: tuple[tuple[PhaseProfile, int], ...]
    description: str = ""
    _calibrated: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ExperimentError(f"{self.name}: need at least one node")
        if not self.phases:
            raise ExperimentError(f"{self.name}: a workload needs phases")
        for profile, iters in self.phases:
            if iters <= 0:
                raise ExperimentError(
                    f"{self.name}: phase {profile.name} has {iters} iterations"
                )

    @property
    def total_ref_time_s(self) -> float:
        """Wall time at the anchor operating point (no policy, no noise)."""
        return sum(p.ref_iteration_s * n for p, n in self.phases)

    @property
    def main_phase(self) -> PhaseProfile:
        """The phase contributing the most reference time."""
        return max(self.phases, key=lambda pn: pn[0].ref_iteration_s * pn[1])[0]

    def calibrated(self) -> "Workload":
        """Return a copy with every phase's power knob calibrated.

        Calibration instantiates a scratch node of the right type and
        inverts the affine power model; see
        :meth:`repro.workloads.phase.PhaseProfile.calibrate_activity`.
        """
        if self._calibrated:
            return self
        scratch = Node(self.node_config)
        phases = tuple(
            (profile.calibrate_activity(scratch), n) for profile, n in self.phases
        )
        return replace(self, phases=phases, _calibrated=True)

    def retargeted(self, node_config: NodeConfig) -> "Workload":
        """Copy bound to a different node type (same name and phases).

        A heterogeneous scheduler uses this when it places a job on a
        generation other than the trace's default.  Calibration is
        dropped so the power knobs are re-fitted for the new silicon;
        the name is kept, so run-cache keys differ only through the
        node configuration.
        """
        if node_config == self.node_config:
            return self
        return replace(self, node_config=node_config, _calibrated=False)

    def scaled_iterations(self, factor: float) -> "Workload":
        """Copy with iteration counts scaled (shorter test runs)."""
        if not factor > 0:
            raise ExperimentError(f"scale factor must be positive, got {factor}")
        try:
            phases = tuple(
                (profile, max(1, int(round(n * factor)))) for profile, n in self.phases
            )
        except OverflowError:  # an infinite factor, or a count past float range
            raise ExperimentError(f"scale factor {factor} must keep counts finite") from None
        return replace(self, phases=phases)
