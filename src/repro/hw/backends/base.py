"""The abstract uncore-control backend interface.

The paper drives the uncore through exactly one mechanism — the
Skylake-SP ``UNCORE_RATIO_LIMIT`` MSR (0x620) — but Intel has shipped
three incompatible control paths across generations:

* the **MSR** path (Haswell-EP through Ice Lake): one package-wide
  min/max ratio register per socket;
* the legacy **sysfs** driver (``intel_uncore_frequency``): one
  directory of ``min_freq_khz``/``max_freq_khz`` files per die, written
  independently;
* the Granite-Rapids **TPMI** interface: per-die uncore domains with
  die-granular clamping and Efficiency Latency Control (ELC) hints
  biasing the firmware's frequency selection.

A :class:`UncoreBackend` abstracts the differences behind one surface:
domain enumeration, limit read/write, current-ratio observation and
capability flags, so EARD's apply path and the UFS model are written
once and run on any generation.  The MSR implementation wraps today's
register path bit-identically and stays the default; the two
die-granular paths share :class:`DieGranularBackend`, which keeps no
limit state of its own — the dies' :class:`~repro.hw.uncore.UncoreDomain`
limits are the only copy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar

from ...errors import MsrPermissionError
from ...telemetry.recorder import NULL_RECORDER, Recorder
from ..msr import UncoreRatioLimit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cpu import Socket
    from ..node import Node
    from ..ufs import UfsInputs

__all__ = ["DieGranularBackend", "UncoreBackend"]


class UncoreBackend(ABC):
    """One generation's uncore frequency-limit control path.

    A backend belongs to one :class:`~repro.hw.node.Node` and drives
    that node's :class:`~repro.hw.uncore.UncoreDomain` objects — the
    domains stay the single source of truth for the physics (current
    ratio, accounting); the backend models *how limits reach them*
    (register layout, units, per-die granularity, privileges).

    Class-level capability flags describe what the control path can do:

    ``die_granular``
        Limits can target one die without touching its siblings.  The
        MSR path cannot (0x620 is package-scoped).
    ``writable_min``
        The minimum limit is software-writable.  All three simulated
        paths allow it; a backend for a locked platform would not.
    """

    #: registry key (``"msr"``/``"sysfs"``/``"tpmi"``).
    name: ClassVar[str]
    die_granular: ClassVar[bool]
    writable_min: ClassVar[bool]

    def __init__(self, node: "Node") -> None:
        self.node = node
        #: event sink for ``uncore/limit_write``; the engine swaps in the
        #: node's recorder when telemetry is armed.
        self.telemetry: Recorder = NULL_RECORDER
        #: bumped on every non-MSR limit write; the batched kernel folds
        #: it into its plan-invalidation tag next to the sockets'
        #: :attr:`~repro.hw.msr.MsrFile.write_generation` (MSR-path
        #: writes are already counted there, so :class:`MsrBackend`
        #: leaves this at zero).
        self.write_generation = 0

    # -- enumeration -------------------------------------------------------

    def domains(self) -> tuple[tuple[int, int], ...]:
        """All controllable ``(socket_id, die)`` domains of the node."""
        return tuple(
            (s.socket_id, d)
            for s in self.node.sockets
            for d in range(len(s.dies))
        )

    def silicon_range(self) -> UncoreRatioLimit:
        """The hardware uncore ratio range, as EARD reads it at start-up."""
        return self.read_limits(0, 0)

    # -- limit access ------------------------------------------------------

    @abstractmethod
    def read_limits(self, socket: int, die: int = 0) -> UncoreRatioLimit:
        """The limits currently programmed for one domain."""

    @abstractmethod
    def write_limits(
        self,
        limits: UncoreRatioLimit,
        *,
        privileged: bool = False,
        socket: int | None = None,
        die: int | None = None,
    ) -> None:
        """Program limits; ``socket``/``die`` of None fan out to all.

        Non-die-granular backends ignore ``die`` (every die of the
        targeted socket gets the same limits, as MSR 0x620 does).
        """

    def read_ratio(self, socket: int, die: int = 0) -> int:
        """The ratio a domain is running right now."""
        return self.node.sockets[socket].dies[die].current_ratio

    # -- control-loop hints ------------------------------------------------

    def ufs_floor_ratio(self, inputs: "UfsInputs") -> int:
        """Extra lower bound the control path imposes on the UFS target.

        Zero everywhere except TPMI, whose ELC hints clamp busy domains
        above an efficiency floor.
        """
        return 0

    # -- shared helpers ----------------------------------------------------

    def _emit_limit_write(
        self,
        socket: "Socket",
        die: int,
        old: UncoreRatioLimit | None,
        new: UncoreRatioLimit,
    ) -> None:
        """One ``uncore/limit_write`` event, 1:1 with a landed write.

        Callers invoke this only under ``telemetry.enabled``, so the
        clean path stays zero-cost.
        """
        self.telemetry.event(
            "uncore",
            "limit_write",
            backend=self.name,
            socket=socket.socket_id,
            die=die,
            old_min_ratio=None if old is None else old.min_ratio,
            old_max_ratio=None if old is None else old.max_ratio,
            new_min_ratio=new.min_ratio,
            new_max_ratio=new.max_ratio,
        )

    def _target_sockets(self, socket: int | None) -> list["Socket"]:
        if socket is None:
            return list(self.node.sockets)
        return [self.node.sockets[socket]]


class DieGranularBackend(UncoreBackend):
    """A per-die control path whose limits live only on the domains.

    The sysfs and TPMI paths both clamp each die's limits into the
    silicon range before storing them, so a read is simply the die's
    :attr:`~repro.hw.uncore.UncoreDomain.limits`.  (The raw MSR path
    differs: 0x620 stores any 7-bit pattern and reads return it.)
    Subclasses name their refusal message and may charge a per-die
    write cost through :meth:`_die_written`.
    """

    die_granular = True
    writable_min = True
    #: the :class:`~repro.errors.MsrPermissionError` text of an
    #: unprivileged write.
    refusal: ClassVar[str]

    def read_limits(self, socket: int, die: int = 0) -> UncoreRatioLimit:
        """The limits programmed on one die."""
        return self.node.sockets[socket].dies[die].limits

    def write_limits(
        self,
        limits: UncoreRatioLimit,
        *,
        privileged: bool = False,
        socket: int | None = None,
        die: int | None = None,
    ) -> None:
        """Clamp the targeted dies' limits into the silicon range."""
        if not privileged:
            raise MsrPermissionError(self.refusal)
        for s in self._target_sockets(socket):
            dies = range(len(s.dies)) if die is None else (die,)
            for d in dies:
                dom = s.dies[d]
                old = dom.limits
                lo = min(max(limits.min_ratio, dom.hw_min_ratio), dom.hw_max_ratio)
                hi = min(max(limits.max_ratio, dom.hw_min_ratio), dom.hw_max_ratio)
                self._die_written()
                dom.set_limits(UncoreRatioLimit(min_ratio=lo, max_ratio=hi))
                self.write_generation += 1
                if self.telemetry.enabled:
                    self._emit_limit_write(s, d, old, dom.limits)

    def _die_written(self) -> None:
        """Charge the control path's cost of one die write (none here)."""
