"""The Granite-Rapids TPMI uncore backend (per-die domains + ELC).

Granite Rapids moved uncore control from model-specific registers to
the Topology-Aware Register and PM Capsule Interface (TPMI): each
compute die is its own uncore domain with an independently clampable
min/max ratio, and the firmware's frequency selection is biased by
Efficiency Latency Control (ELC) hints — below a low-utilisation
threshold the domain may sink to its floor ratio, above a high
threshold it is held at or above an efficiency floor so latency-bound
phases are not starved.

The simulation models the parts the EAR policies interact with:
die-granular limit writes (privileged, mailbox-backed) landing on each
die's own domain independently of MSR 0x620, and the ELC floor folded
into the UFS convergence as an extra lower bound when the socket is
busy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import DieGranularBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ufs import UfsInputs

__all__ = ["TpmiBackend"]


class TpmiBackend(DieGranularBackend):
    """Per-die TPMI uncore domains with ELC hints."""

    name = "tpmi"
    refusal = "TPMI uncore mailbox writes require ring 0"

    #: ELC utilisation thresholds (fractions of cores busy) and the
    #: efficiency floor as a fraction of the silicon maximum ratio.
    elc_low_threshold = 0.15
    elc_high_threshold = 0.70
    elc_floor_frac = 0.5

    def ufs_floor_ratio(self, inputs: "UfsInputs") -> int:
        """The ELC efficiency floor for the observed utilisation.

        A busy socket (active fraction at or above the high threshold)
        is held at ``elc_floor_frac`` of the silicon maximum; below the
        low threshold there is no floor; between the thresholds the
        floor ramps linearly, mirroring how the firmware blends the two
        hints.
        """
        active = min(max(inputs.active_fraction, 0.0), 1.0)
        if active < self.elc_low_threshold:
            return 0
        hw_max = self.node.sockets[0].dies[0].hw_max_ratio
        if active >= self.elc_high_threshold:
            frac = self.elc_floor_frac
        else:
            span = self.elc_high_threshold - self.elc_low_threshold
            frac = self.elc_floor_frac * (active - self.elc_low_threshold) / span
        return int(round(frac * hw_max))
