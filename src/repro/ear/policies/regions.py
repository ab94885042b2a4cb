"""Region-based ``min_energy``: per-phase (f_cpu, f_imc) tables.

The paper tunes one ``(f_cpu, f_imc)`` pair per application signature;
real workloads are phase-structured.  Chadha & Gerndt's region-based
DVFS/UFS modelling (see PAPERS.md and ROADMAP item 4) keeps one
operating point *per region* instead: when the application re-enters a
phase it has already visited, the tuned pair is re-applied directly and
the iterative descent — with its penalty-bearing ``CONTINUE`` windows —
is skipped.

This policy implements that on top of :class:`MinEnergyPolicy`:

* **Region key.**  A region is identified by the signature observed at
  the phase boundary (the window that (re-)enters ``CPU_FREQ_SEL`` —
  either the first window of the run, a phase change detected during
  the descent, or a validation failure in the stable state, exactly the
  boundaries DynAIS + the ``phase_change`` telemetry event expose).
  CPI and GB/s are quantized into logarithmic buckets whose width is
  the configured ``signature_change_th`` (15 % by default), so two
  windows of the same phase map to the same key while signatures the
  stable-state validation would reject map to different ones.  See
  ``docs/POLICIES.md`` for the derivation and worked examples.

* **Learning.**  The first visit to a region runs the inherited
  figure-2 machine unchanged.  When the machine settles (enters
  ``STABLE``), the selected ``(P-state, f_cpu, f_imc_max)`` triple is
  stored under the region key (``policy/region_learned`` telemetry).

* **Re-entry.**  A window entering ``CPU_FREQ_SEL`` whose key is in the
  table — and differs from the region the policy is currently tuned
  for — re-applies the stored pair in one step: references and the
  decision signature are rebased on the fresh window, the machine goes
  straight to ``STABLE`` and returns ``READY``
  (``policy/region_reapply`` telemetry).

* **Single-phase fallback.**  On a single-phase application only one
  region key ever exists, and it is always the *active* one after the
  first settle, so the re-apply branch never triggers: every decision
  is byte-for-byte the decision :class:`MinEnergyPolicy` would have
  made (pinned by tests/ear/test_regions_policy.py).

The table survives :meth:`reset` on purpose: a reset marks a phase
boundary, which is precisely when re-entering an already-tuned region
must find the table populated.  A fresh job gets a fresh plugin
instance, so tables never leak across jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..signature import Signature
from .api import NodeFreqs, PolicyState
from .min_energy import MinEnergyPolicy, Stage
from .registry import PolicyContext, register_policy

__all__ = ["MinEnergyRegionsPolicy", "RegionEntry", "region_key"]

#: GB/s level below which memory traffic is busy-wait noise; such
#: signatures share one "no traffic" bucket instead of spreading over
#: meaningless log buckets (mirrors the descent guard's floor).
_GBS_BUCKET_FLOOR = 0.5


def region_key(sig: Signature, change_th: float) -> tuple[int, int]:
    """Quantize a phase-boundary signature into a region key.

    CPI and GB/s land in logarithmic buckets of relative width
    ``change_th`` — ``bucket = floor(ln(x) / ln(1 + change_th))`` — so
    values within one signature-change tolerance of each other fall in
    the same or an adjacent bucket.  A boundary straddle is benign: the
    policy just learns the region twice.
    """
    width = math.log1p(change_th)
    cpi_bucket = int(math.floor(math.log(max(sig.cpi, 1e-9)) / width))
    if sig.gbs <= _GBS_BUCKET_FLOOR:
        gbs_bucket = -(10**6)  # the shared "no memory traffic" bucket
    else:
        gbs_bucket = int(math.floor(math.log(sig.gbs) / width))
    return (cpi_bucket, gbs_bucket)


@dataclass(frozen=True)
class RegionEntry:
    """One region's learned operating point."""

    pstate: int
    cpu_ghz: float
    imc_max_ghz: float


@register_policy("min_energy_regions")
class MinEnergyRegionsPolicy(MinEnergyPolicy):
    """min_energy + explicit UFS with a per-region frequency table."""

    name = "min_energy_regions"

    def __init__(self, ctx: PolicyContext) -> None:
        super().__init__(ctx)
        self._region_table: dict[tuple[int, int], RegionEntry] = {}
        #: region the current STABLE selection was tuned for.
        self._active_region: tuple[int, int] | None = None
        #: region whose descent is in flight (learned at the settle).
        self._pending_region: tuple[int, int] | None = None

    def reset(self) -> None:
        """Forget descent state but keep the learned region table."""
        super().reset()
        self._pending_region = None

    # -- the region hook ------------------------------------------------------

    def _cpu_freq_sel(self, sig: Signature) -> tuple[PolicyState, NodeFreqs]:
        """Every (re-)entry into the CPU stage passes through here —
        the first window, the in-descent phase-change restart and the
        restart after a validation failure alike."""
        key = region_key(sig, self.cfg.signature_change_th)
        entry = self._region_table.get(key)
        if entry is not None and key != self._active_region:
            return self._reapply(key, entry, sig)
        self._pending_region = key
        return super()._cpu_freq_sel(sig)

    def _reapply(
        self, key: tuple[int, int], entry: RegionEntry, sig: Signature
    ) -> tuple[PolicyState, NodeFreqs]:
        """Re-enter a known region: apply its stored pair in one step."""
        self._current_ps = entry.pstate
        self._selected_cpu_ghz = entry.cpu_ghz
        self._imc_max_ghz = entry.imc_max_ghz
        # the fresh boundary window is the new reference: validation and
        # the descent guard both grade against *this* phase's levels.
        self._ref_cpi, self._ref_gbs = sig.cpi, sig.gbs
        self._decision_sig = sig
        self._active_region = key
        self._pending_region = None
        if self.telemetry.enabled:
            self.telemetry.event(
                "policy",
                "region_reapply",
                region=f"{key[0]},{key[1]}",
                pstate=entry.pstate,
                cpu_ghz=entry.cpu_ghz,
                imc_max_ghz=entry.imc_max_ghz,
            )
        self._enter_stage(Stage.STABLE)
        freqs = NodeFreqs(
            cpu_ghz=entry.cpu_ghz,
            imc_max_ghz=self._imc_max_ghz,
            imc_min_ghz=min(self.ctx.imc_min_ghz, self._imc_max_ghz),
        )
        return PolicyState.READY, self._freqs_with_limits(freqs)

    def _enter_stage(self, stage: Stage) -> None:
        """Intercept the settle: store the pair under the pending key."""
        if (
            stage is Stage.STABLE
            and self._stage is not Stage.STABLE
            and self._pending_region is not None
        ):
            key = self._pending_region
            self._region_table[key] = RegionEntry(
                pstate=self._current_ps,
                cpu_ghz=self._selected_cpu_ghz,
                imc_max_ghz=self._imc_max_ghz,
            )
            self._active_region = key
            self._pending_region = None
            if self.telemetry.enabled:
                self.telemetry.event(
                    "policy",
                    "region_learned",
                    region=f"{key[0]},{key[1]}",
                    pstate=self._current_ps,
                    cpu_ghz=self._selected_cpu_ghz,
                    imc_max_ghz=self._imc_max_ghz,
                    n_regions=len(self._region_table),
                )
        super()._enter_stage(stage)
