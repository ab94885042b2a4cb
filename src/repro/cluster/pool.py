"""Heterogeneous node pools: mixed processor generations in one cluster.

Production EAR clusters are rarely one node type: partitions bought
years apart coexist, and each generation exposes a different uncore
control path (:mod:`repro.hw.backends`).  A :class:`NodePool` maps the
scheduler's flat node-id space onto named *generations* — contiguous
id ranges of one :class:`~repro.hw.node.NodeConfig` each — so the FCFS
+ backfill scheduler can place a job on any generation with capacity,
retarget its workload to that silicon, and let coefficient resolution
pick the right per-(node type, backend) table.

``--node-mix skylake=8,graniterapids=8`` on the CLI becomes
``(("skylake", 8), ("graniterapids", 8))`` via :func:`parse_node_mix`;
the registry :data:`GENERATIONS` names the configs a mix may draw from.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import replace

from ..errors import ConfigError
from ..hw.node import BROADWELL_NODE, GRANITE_RAPIDS_NODE, SD530, NodeConfig

__all__ = ["GENERATIONS", "NodePool", "parse_node_mix"]

#: the node generations a mix may name.  Broadwell is bound to the
#: legacy sysfs driver here: the ring-bus parts are exactly the ones
#: operated through ``intel_uncore_frequency`` files in mixed clusters,
#: and it keeps every backend reachable from a trace.
GENERATIONS: dict[str, NodeConfig] = {
    "skylake": SD530,
    "broadwell": replace(BROADWELL_NODE, uncore_backend="sysfs"),
    "graniterapids": GRANITE_RAPIDS_NODE,
}


def parse_node_mix(spec: str) -> tuple[tuple[str, int], ...]:
    """Parse a ``gen=count,gen=count`` mix specification.

    Order is preserved — it is the placement preference order (the
    scheduler tries the first named generation first) and fixes the
    node-id layout, so the same spec always yields the same schedule.
    """
    mix: list[tuple[str, int]] = []
    seen: set[str] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, count_s = part.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(
                f"malformed node-mix entry {part!r}; expected <generation>=<count>"
            )
        if name not in GENERATIONS:
            raise ConfigError(
                f"unknown node generation {name!r}; expected one of "
                f"{', '.join(GENERATIONS)}"
            )
        if name in seen:
            raise ConfigError(f"node generation {name!r} appears twice in the mix")
        seen.add(name)
        try:
            count = int(count_s)
        except ValueError:
            raise ConfigError(
                f"node-mix count for {name!r} must be an integer, got {count_s!r}"
            ) from None
        if count < 1:
            raise ConfigError(f"node-mix count for {name!r} must be >= 1")
        mix.append((name, count))
    if not mix:
        raise ConfigError("a node mix needs at least one generation")
    return tuple(mix)


class NodePool:
    """Node-id layout of a cluster, one contiguous id range per generation.

    Generations occupy their ranges in mix order: a mix of
    ``skylake=8,graniterapids=8`` puts Skylake on ids 0..7 and Granite
    Rapids on 8..15.  A homogeneous cluster is :meth:`homogeneous`: one
    generation over every node that carries no
    :class:`~repro.hw.node.NodeConfig`, so each job keeps its
    workload's own node type.  The pool is pure bookkeeping — live
    :class:`~repro.hw.node.Node` objects are still built per job by the
    simulation engine from the (retargeted) workload's node config.
    """

    def __init__(
        self,
        mix: tuple[tuple[str, int], ...],
        *,
        configs: Mapping[str, NodeConfig | None] = GENERATIONS,
    ) -> None:
        if not mix:
            raise ConfigError("a node pool needs at least one generation")
        self.mix = tuple(mix)
        self._configs = configs
        self._ranges: dict[str, range] = {}
        at = 0
        for name, count in self.mix:
            if name not in configs:
                raise ConfigError(
                    f"unknown node generation {name!r}; expected one of "
                    f"{', '.join(configs)}"
                )
            if count < 1:
                raise ConfigError(f"generation {name!r} needs at least one node")
            if name in self._ranges:
                raise ConfigError(f"generation {name!r} appears twice in the mix")
            self._ranges[name] = range(at, at + count)
            at += count
        self.total = at
        #: generation names, mix (= placement preference) order.
        self.generations = tuple(self._ranges)

    @classmethod
    def homogeneous(cls, n_nodes: int) -> NodePool:
        """One generation over ``n_nodes`` nodes, without a node config."""
        return cls((("homogeneous", n_nodes),), configs={"homogeneous": None})

    @property
    def max_generation_size(self) -> int:
        """Node count of the largest generation (bounds job width)."""
        return max(count for _, count in self.mix)

    def node_ids(self, generation: str) -> range:
        """The contiguous node-id range of one generation."""
        try:
            return self._ranges[generation]
        except KeyError:
            raise ConfigError(f"generation {generation!r} is not in this pool") from None

    def config(self, generation: str) -> NodeConfig | None:
        """The node configuration of one generation (None: keep the job's)."""
        self.node_ids(generation)  # membership check
        return self._configs[generation]

    def generation_of(self, node_id: int) -> str:
        """The generation owning a node id."""
        for name, ids in self._ranges.items():
            if node_id in ids:
                return name
        raise ConfigError(f"node id {node_id} is outside the pool (0..{self.total - 1})")

    def config_of(self, node_id: int) -> NodeConfig | None:
        """The node configuration of a node id."""
        return self._configs[self.generation_of(node_id)]
