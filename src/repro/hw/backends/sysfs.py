"""The legacy ``intel_uncore_frequency`` sysfs uncore backend.

The pre-TPMI Linux driver exposes one directory per die under
``/sys/devices/system/cpu/intel_uncore_frequency/`` with independent
``min_freq_khz``/``max_freq_khz`` files.  Two semantics differ from the
raw MSR path and are modelled here:

* each die is addressed independently, and the driver clamps written
  values into the silicon range; the files hold whole 100 MHz ratios,
  so the die's own limits are the file contents and no copy is kept;
* min and max are **separate files**, written one syscall each, and
  every file write costs a VFS round trip plus the driver's own MSR
  mailbox — orders of magnitude slower than a direct ``wrmsr``.  The
  accumulated cost is tracked in :attr:`SysfsBackend.write_latency_s`
  rather than injected into the simulated physics, which the 10
  ms-scale UFS loop would not resolve.
"""

from __future__ import annotations

from .base import DieGranularBackend

__all__ = ["SysfsBackend"]

#: modelled cost of one sysfs file write (VFS + driver mailbox).
_FILE_WRITE_LATENCY_S = 250e-6


class SysfsBackend(DieGranularBackend):
    """Per-die min/max files with root-only writes."""

    name = "sysfs"
    refusal = "intel_uncore_frequency sysfs files are root-writable only"

    def __init__(self, node) -> None:
        super().__init__(node)
        #: accumulated modelled syscall latency of all limit writes.
        self.write_latency_s = 0.0

    def _die_written(self) -> None:
        """Two file writes per die: max first, then min, like the driver."""
        self.write_latency_s += 2 * _FILE_WRITE_LATENCY_S
