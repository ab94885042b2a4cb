"""Compute-node model: sockets + DRAM + GPUs + sensors.

A :class:`Node` is the unit the EAR daemon manages: it owns two (or
more) sockets with their MSR files and uncore domains, the DRAM, any
GPUs, and the power sensors (RAPL per domain, Node Manager DC energy for
the whole node).  The simulation engine drives it with *operating
points* — a description of what the workload is doing right now — and
time intervals; the node turns those into power, energy-counter updates
and frequency accounting.

The DC node power is assembled exactly the way the paper argues it must
be measured: packages + DRAM + constant platform + GPUs, i.e. everything
behind the PSU, not just the RAPL package domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Sequence

from ..errors import HardwareError
from .backends import create_backend
from .dram import DDR4_2400_12DIMM, DramConfig
from .gpu import TESLA_V100, GpuModel
from .ipmi import NodeManagerEnergyCounter
from .power import PowerModelParams, socket_power
from .pstates import XEON_6142M, XEON_6148, XEON_6747P, XEON_E5_2620V4, PStateTable
from .rapl import RaplDomain
from .ufs import UfsController, UfsInputs
from .units import ghz_to_ratio
from .cpu import Socket

__all__ = [
    "OperatingPoint",
    "NodePower",
    "NodeConfig",
    "Node",
    "SD530",
    "GPU_NODE",
    "BROADWELL_NODE",
    "GRANITE_RAPIDS_NODE",
]


@dataclass(frozen=True)
class OperatingPoint:
    """What the workload is doing on a node right now.

    The engine derives one operating point per (phase, iteration)
    segment; all quantities are node-wide and distributed evenly across
    sockets (the paper's workloads are balanced within a node).
    """

    #: cores executing application work across the whole node.
    n_active_cores: int
    #: per-active-core dynamic activity (instruction throughput proxy).
    activity: float
    #: AVX-512 instruction fraction.
    vpi: float
    #: main-memory traffic for the whole node, GB/s.
    traffic_gbs: float
    #: effective core clock being sustained, GHz.
    effective_core_ghz: float
    #: LLC/IMC pressure seen by the HW UFS controller, 0..1.
    uncore_demand: float = 0.0
    #: fraction of cores the UFS monitor counts as truly busy.
    hw_active_fraction: float | None = None
    #: pinned-socket uncore/core follow factor override (None = derive
    #: from the active fraction).
    hw_follow_factor: float | None = None
    #: number of GPUs running kernels.
    gpus_busy: int = 0
    #: utilisation of the busy GPUs.
    gpu_utilisation: float = 1.0


@dataclass(frozen=True)
class NodePower:
    """Instantaneous power decomposition of a node, watts."""

    pck_w: tuple[float, ...]
    dram_w: float
    platform_w: float
    gpus_w: float

    @property
    def pck_total_w(self) -> float:
        """Both sockets' package power, in watts."""
        return sum(self.pck_w)

    @property
    def dc_w(self) -> float:
        """Node DC power: packages, DRAM and platform, in watts."""
        return self.pck_total_w + self.dram_w + self.platform_w + self.gpus_w


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to instantiate identical nodes of one type."""

    name: str
    pstates: PStateTable
    dram: DramConfig
    power: PowerModelParams
    n_sockets: int = 2
    gpus: tuple[GpuModel, ...] = ()
    idle_core_freq_ghz: float | None = None
    #: silicon uncore frequency range (BCLK ratios).
    uncore_max_ratio: int = 24
    uncore_min_ratio: int = 12
    #: uncore control path for this generation — a key into
    #: :data:`repro.hw.backends.BACKEND_NAMES` (``"msr"`` is the
    #: paper's Skylake-SP register path and the default).
    uncore_backend: str = "msr"
    #: uncore dies per package; >1 only on TPMI-era multi-die parts.
    dies_per_socket: int = 1

    @property
    def n_cores(self) -> int:
        """Total cores across the node's sockets."""
        return self.n_sockets * self.pstates.n_cores


#: The paper's main testbed node: Lenovo ThinkSystem SD530,
#: 2x Xeon Gold 6148, 12x8 GB DDR4-2400.
SD530 = NodeConfig(
    name="Lenovo ThinkSystem SD530 (2x Xeon Gold 6148)",
    pstates=XEON_6148,
    dram=DDR4_2400_12DIMM,
    power=PowerModelParams(),
)

#: A Broadwell node like the related work's testbeds ([18], [19]):
#: 2x Xeon E5-2620 v4, 4-channel DDR4-2133.  The smaller ring-bus
#: uncore has a lower dynamic coefficient; no AVX-512.
BROADWELL_NODE = NodeConfig(
    name="Broadwell node (2x Xeon E5-2620 v4)",
    pstates=XEON_E5_2620V4,
    dram=DramConfig(peak_node_gbs=110.0, f_max_ghz=2.7),
    power=PowerModelParams(
        pck_base_w=14.0,
        uncore_dyn_w=8.0,
        platform_w=55.0,
    ),
    uncore_max_ratio=27,
    uncore_min_ratio=12,
)

#: The GPU node used for CUDA kernels: 2x Xeon Gold 6142M + 2x V100.
#: The 16-core die has a smaller mesh, hence the lower uncore coefficient.
GPU_NODE = NodeConfig(
    name="GPU node (2x Xeon Gold 6142M, 2x Tesla V100)",
    pstates=XEON_6142M,
    dram=DDR4_2400_12DIMM,
    power=PowerModelParams(platform_w=60.0, uncore_dyn_w=12.0),
    gpus=(TESLA_V100, TESLA_V100),
)

#: A Granite Rapids node: 2x Xeon 6747P, DDR5, two uncore (compute)
#: dies per package, controlled through the TPMI backend with ELC
#: hints.  The uncore range is wider at both ends than Skylake's
#: (0.8 .. 2.5 GHz) and the mesh spans two dies, hence the larger
#: dynamic uncore coefficient.
GRANITE_RAPIDS_NODE = NodeConfig(
    name="Granite Rapids node (2x Xeon 6747P)",
    pstates=XEON_6747P,
    dram=DramConfig(
        peak_node_gbs=430.0,
        f_half_ghz=1.2,
        f_max_ghz=3.2,
        static_power_w=22.0,
        power_w_per_gbs=0.12,
    ),
    power=PowerModelParams(
        pck_base_w=32.0,
        core_dyn_w=1.55,
        uncore_dyn_w=22.0,
        platform_w=78.0,
    ),
    uncore_max_ratio=25,
    uncore_min_ratio=8,
    uncore_backend="tpmi",
    dies_per_socket=2,
)


class Node:
    """A live compute node instance."""

    def __init__(self, config: NodeConfig, node_id: int = 0) -> None:
        self.config = config
        self.node_id = node_id
        from .uncore import UncoreDomain

        if config.dies_per_socket < 1:
            raise HardwareError(
                f"dies_per_socket must be >= 1, got {config.dies_per_socket}"
            )

        def _die(die_id: int) -> UncoreDomain:
            return UncoreDomain(
                hw_min_ratio=config.uncore_min_ratio,
                hw_max_ratio=config.uncore_max_ratio,
                die_id=die_id,
            )

        self.sockets = [
            Socket(
                pstates=config.pstates,
                socket_id=i,
                idle_core_freq_ghz=config.idle_core_freq_ghz,
                dies=tuple(_die(d) for d in range(config.dies_per_socket)),
            )
            for i in range(config.n_sockets)
        ]
        #: the generation's uncore control path (limit reads/writes and
        #: the ELC floor all go through this).
        self.uncore_backend = create_backend(config.uncore_backend, self)
        self.rapl = RaplDomain(n_sockets=config.n_sockets)
        self.dc_meter = NodeManagerEnergyCounter()
        self.ufs = UfsController()
        self._elapsed_s = 0.0
        #: exact package-domain energy (no RAPL wrap) — harness ground truth.
        self._pck_energy_j = 0.0

    # -- frequency control (EARD acts through these) -------------------------

    def set_core_freq(self, freq_ghz: float, *, privileged: bool = False) -> None:
        """Pin the core clock on every socket."""
        for s in self.sockets:
            s.set_target_freq(freq_ghz, privileged=privileged)

    def set_uncore_limits(self, limits, *, privileged: bool = False) -> None:
        """Program the uncore limits on every domain, via the backend."""
        self.uncore_backend.write_limits(limits, privileged=privileged)

    def set_pkg_power_limit(
        self, watts: float | None, *, privileged: bool = False
    ) -> None:
        """Arm (or disable) the RAPL PL1 package cap on every socket."""
        for s in self.sockets:
            s.msr.write_pkg_power_limit(watts, privileged=privileged)

    @property
    def core_target_ghz(self) -> float:
        """The programmed (pre-licence) core clock target."""
        return self.sockets[0].target_freq_ghz

    @property
    def uncore_freq_ghz(self) -> float:
        """The uncore's current frequency (socket 0, die mean), in GHz."""
        return self.sockets[0].uncore_freq_ghz

    @property
    def elapsed_s(self) -> float:
        """Simulated time this node has executed, in seconds."""
        return self._elapsed_s

    # -- hardware control loop -------------------------------------------------

    def run_ufs(self, op: OperatingPoint) -> None:
        """Let the HW UFS controller converge for the current workload.

        Called by the engine at segment boundaries; the 10 ms loop
        period is far below segment durations, so the converged target
        is applied directly.
        """
        per_socket_active = op.n_active_cores / len(self.sockets)
        backend = self.uncore_backend
        for si, s in enumerate(self.sockets):
            if op.hw_active_fraction is not None:
                active_frac = op.hw_active_fraction
            else:
                active_frac = min(1.0, per_socket_active / s.n_cores)
            inputs = UfsInputs(
                fastest_active_ratio=(
                    ghz_to_ratio(op.effective_core_ghz) if per_socket_active > 0 else 0
                ),
                active_fraction=active_frac,
                vpi=op.vpi,
                uncore_demand=op.uncore_demand,
                pinned=s.pinned,
                epb=s.msr.read_epb(),
                follow_factor=op.hw_follow_factor,
            )
            # the backend's floor is 0 everywhere except TPMI's ELC,
            # so the MSR path is bit-identical to the pre-backend loop.
            floor = backend.ufs_floor_ratio(inputs)
            for d, dom in enumerate(s.dies):
                limits = backend.read_limits(si, d)
                ratio = self.ufs.target_ratio(
                    inputs,
                    msr_min=max(limits.min_ratio, dom.hw_min_ratio, floor),
                    msr_max=min(limits.max_ratio, dom.hw_max_ratio),
                )
                dom.set_ratio(ratio)

    # -- power & energy ---------------------------------------------------------

    def active_cores_per_socket(self, n_active_cores: int) -> tuple[int, ...]:
        """Distribute node-wide active cores over the sockets.

        The remainder lands on the lowest-numbered sockets (socket 0
        first), so a single active core — the typical GPU-offload host
        pattern — is never rounded away: 1 core on 2 sockets is (1, 0),
        not the (0, 0) that ``round(0.5)`` used to produce.
        """
        if n_active_cores < 0 or n_active_cores > self.config.n_cores:
            raise HardwareError(
                f"{n_active_cores} active cores on a "
                f"{self.config.n_cores}-core node"
            )
        base, rem = divmod(n_active_cores, len(self.sockets))
        return tuple(
            base + (1 if i < rem else 0) for i in range(len(self.sockets))
        )

    def power(self, op: OperatingPoint) -> NodePower:
        """Instantaneous power breakdown at an operating point."""
        per_socket_gbs = op.traffic_gbs / len(self.sockets)
        pck = []
        for s, n_active in zip(
            self.sockets, self.active_cores_per_socket(op.n_active_cores)
        ):
            bd = socket_power(
                self.config.power,
                # a fully idle socket's cores sit at the idle clock, not
                # whatever target happens to be programmed.
                f_core_ghz=op.effective_core_ghz if n_active else s.idle_core_freq_ghz,
                f_uncore_ghz=s.uncore_freq_ghz,
                n_active_cores=n_active,
                n_idle_cores=s.n_cores - n_active,
                activity=op.activity,
                vpi=op.vpi,
                socket_traffic_gbs=per_socket_gbs,
            )
            pck.append(bd.total_w)
        dram_w = self.config.dram.power_w(op.traffic_gbs)
        gpus_w = 0.0
        for i, gpu in enumerate(self.config.gpus):
            gpus_w += gpu.power_w(busy=i < op.gpus_busy, utilisation=op.gpu_utilisation)
        return NodePower(
            pck_w=tuple(pck),
            dram_w=dram_w,
            platform_w=self.config.power.platform_w,
            gpus_w=gpus_w,
        )

    def power_affine(self, op: OperatingPoint) -> tuple[NodePower, tuple[float, ...], float]:
        """Node power as an affine function of memory traffic.

        Returns ``(power at zero traffic, per-socket package slopes,
        DRAM slope)``, all slopes in watts per *node* GB/s, such that
        :meth:`power` at traffic ``g`` decomposes exactly into the
        zero-traffic breakdown plus ``slope * g`` per domain.  The
        batched kernel relies on this: with traffic ``bytes / t``, the
        traffic term contributes a time-invariant energy per iteration,
        so a whole chunk's energy is closed-form in ``sum(t)``.
        """
        p0 = self.power(
            OperatingPoint(
                n_active_cores=op.n_active_cores,
                activity=op.activity,
                vpi=op.vpi,
                traffic_gbs=0.0,
                effective_core_ghz=op.effective_core_ghz,
                uncore_demand=op.uncore_demand,
                hw_active_fraction=op.hw_active_fraction,
                hw_follow_factor=op.hw_follow_factor,
                gpus_busy=op.gpus_busy,
                gpu_utilisation=op.gpu_utilisation,
            )
        )
        n_sockets = len(self.sockets)
        pck_slope = self.config.power.uncore_bw_w_per_gbs / n_sockets
        return (
            p0,
            tuple(pck_slope for _ in range(n_sockets)),
            self.config.dram.power_w_per_gbs,
        )

    def advance(self, op: OperatingPoint, seconds: float) -> NodePower:
        """Spend ``seconds`` at an operating point: integrate all sensors."""
        if seconds < 0:
            raise HardwareError("cannot advance negative time")
        p = self.power(op)
        self.rapl.add_interval(
            pck_watts=list(p.pck_w), dram_watts=p.dram_w, seconds=seconds
        )
        self.dc_meter.integrate(p.dc_w, seconds)
        self._pck_energy_j += p.pck_total_w * seconds
        for s, n_active in zip(
            self.sockets, self.active_cores_per_socket(op.n_active_cores)
        ):
            s.account(
                seconds,
                n_active=n_active,
                effective_ghz=op.effective_core_ghz,
            )
        self._elapsed_s += seconds
        return p

    def advance_energy(
        self,
        *,
        pck_j: Sequence[float],
        dram_j: float,
        dc_j: float,
        n_active_per_socket: Sequence[int],
        effective_ghz: float,
        seconds: float,
    ) -> None:
        """Integrate one interval whose per-domain energies are precomputed.

        The batched kernel evaluates the power model once per chunk (in
        the affine form of :meth:`power_affine`) and commits intervals
        through this method; it is equivalent to :meth:`advance` when
        the energies equal ``power(op) * seconds``.
        """
        if seconds < 0:
            raise HardwareError("cannot advance negative time")
        if seconds == 0:
            return
        for counter, joules in zip(self.rapl.pck, pck_j):
            counter.add_energy(joules)
        self.rapl.dram.add_energy(dram_j)
        self.dc_meter.integrate(dc_j / seconds, seconds)
        self._pck_energy_j += sum(pck_j)
        for s, n_active in zip(self.sockets, n_active_per_socket):
            s.account(seconds, n_active=n_active, effective_ghz=effective_ghz)
        self._elapsed_s += seconds

    # -- aggregated observations ---------------------------------------------

    @property
    def pck_energy_j(self) -> float:
        """Exact package energy since boot (harness ground truth)."""
        return self._pck_energy_j

    def average_cpu_freq_ghz(self) -> float:
        """Node-average CPU frequency over all cores and the whole run."""
        return sum(s.average_freq_ghz() for s in self.sockets) / len(self.sockets)

    def average_imc_freq_ghz(self) -> float:
        """Node-average uncore (IMC) frequency over the whole run."""
        return sum(s.average_uncore_freq_ghz() for s in self.sockets) / len(
            self.sockets
        )


@dataclass
class Cluster:
    """A homogeneous set of nodes allocated to one job."""

    config: NodeConfig
    n_nodes: int
    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise HardwareError("a cluster needs at least one node")
        if not self.nodes:
            self.nodes = [Node(self.config, node_id=i) for i in range(self.n_nodes)]

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
