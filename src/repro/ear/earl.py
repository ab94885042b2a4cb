"""EARL: the EAR runtime library.

EARL lives inside the application (LD_PRELOAD on real systems; driven
by the simulation engine here), detects the iterative structure with
DynAIS, accumulates measurement windows of at least
``signature_min_time_s`` (bounded below by the 1 Hz Node Manager
energy counter), computes signatures and runs the policy state machine
— the paper's Code 1:

* ``NODE_POLICY``: hand the fresh signature to the policy; apply the
  frequencies it returns; move to ``VALIDATE_POLICY`` when the policy
  says ``READY``, stay when it says ``CONTINUE`` (iterative policies
  such as the explicit-UFS descent).
* ``VALIDATE_POLICY``: ask the policy whether the selection still fits;
  on failure restore the defaults and fall back to ``NODE_POLICY``.

Once stable, EARL keeps the same frequencies "until a significant
change is detected in the signature" (15 % by default), which the
validate step checks on every subsequent window.

The runtime is hardened against a hostile node — the degradation
ladder, from mildest to most severe reaction:

1. **Sample rejection**: counter reads that are non-finite or
   non-physical never enter the window accumulator.
2. **Window rejection**: a window whose signature cannot be computed
   (or is non-finite) is dropped and counted, not fed to the policy.
3. **Stall detection**: an energy counter that stops publishing no
   longer blocks the window forever; after ``stalled_poll_limit``
   failed polls the window is declared stalled.
4. **Watchdog**: ``watchdog_window_limit`` consecutive bad windows
   restore the policy defaults and mark the node degraded until a good
   signature arrives.
5. **Policy containment**: a :class:`PolicyError`/:class:`ModelError`
   escaping the policy disables it for the rest of the job and falls
   back to defaults, rather than killing the simulation.

Every rung is tallied in the shared health monitor and surfaced as
:class:`~repro.sim.faults.NodeHealth` on the run result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, auto

from ..errors import ModelError, PolicyError, SignatureError
from ..hw.counters import CounterBank, CounterSnapshot
from ..workloads.phase import IterationCounters
from .config import EarConfig
from .dynais import Dynais, DynaisEvent
from .eard import Eard, EnergyReading
from .models import make_model
from .models.default_model import EnergyModel
from .policies.api import NodeFreqs, PolicyPlugin, PolicyState
from .policies.registry import PolicyContext, create_policy
from .signature import Signature

__all__ = ["EarlState", "PolicyDecision", "Earl"]

# member lookups on an Enum class are slow; on_iteration compares these
_NEW_LOOP = DynaisEvent.NEW_LOOP
_END_LOOP = DynaisEvent.END_LOOP


class EarlState(Enum):
    """EARL's top-level state (the paper's ``ear_state``)."""

    NODE_POLICY = auto()
    VALIDATE_POLICY = auto()


@dataclass(frozen=True)
class PolicyDecision:
    """Trace record of one policy invocation."""

    at_s: float
    earl_state: EarlState
    policy_state: PolicyState | None
    freqs: NodeFreqs | None
    signature: Signature


class Earl:
    """One EARL instance manages one node of one job."""

    def __init__(
        self,
        eard: Eard,
        config: EarConfig,
        *,
        model: EnergyModel | None = None,
        policy: PolicyPlugin | None = None,
    ) -> None:
        self.eard = eard
        self.config = config
        #: shared robustness tally (injector / EARD / EARL sides).
        self.health = eard.health
        #: shared event sink (same recorder as the daemon's).
        self.telemetry = eard.telemetry
        node_config = eard.node.config
        self.model = model if model is not None else make_model(node_config, config)
        ctx = PolicyContext(
            config=config,
            pstates=node_config.pstates,
            model=self.model,
            imc_max_ghz=eard.imc_max_ghz,
            imc_min_ghz=eard.imc_min_ghz,
            telemetry=self.telemetry,
        )
        self.policy = policy if policy is not None else create_policy(config.policy, ctx)
        self.dynais = Dynais()
        self.bank = CounterBank()
        self.state = EarlState.NODE_POLICY
        self.signatures: list[Signature] = []
        self.decisions: list[PolicyDecision] = []
        self._window_start: CounterSnapshot = self.bank.snapshot()
        self._energy_start: EnergyReading = eard.read_dc_energy()
        self._loop_detected = False
        #: degradation-ladder state
        self._stalled_polls = 0
        self._bad_windows = 0
        self._watchdog_tripped = False
        self._policy_disabled = False
        self.policy.on_app_start()
        # EAR pins the policy's default frequency at job start (the
        # ear.conf DEFAULT_FREQUENCY), so every signature — including
        # the very first — is measured with software in control of the
        # clock and the hardware UFS in its pinned regime.
        if self.policy.applies_frequencies:
            self.eard.apply_freqs(self.policy.default_freqs())

    # -- degraded-mode bookkeeping --------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the node runs fallback defaults (watchdog or
        disabled policy) instead of policy decisions."""
        return self._watchdog_tripped or self._policy_disabled

    def _restore_safe_defaults(self) -> None:
        if self.policy.applies_frequencies:
            self.eard.restore_defaults(self.policy.default_freqs())

    def _note_bad_window(self) -> None:
        """One rung-2/3 event: count it and maybe trip the watchdog."""
        self._bad_windows += 1
        if (
            self._bad_windows >= self.config.watchdog_window_limit
            and not self._watchdog_tripped
        ):
            self._watchdog_tripped = True
            self.health.watchdog_restores += 1
            if self.telemetry.enabled:
                self.telemetry.event(
                    "earl", "watchdog_trip", bad_windows=self._bad_windows
                )
            self.health.enter_degraded(self.eard.node.elapsed_s)
            self._restore_safe_defaults()
            # the policy's iterative state refers to measurements taken
            # before the fault; start over once signatures return.
            self.state = EarlState.NODE_POLICY
            self.policy.reset()

    def _note_good_window(self) -> None:
        self._bad_windows = 0
        if self._watchdog_tripped:
            self._watchdog_tripped = False
            if self.telemetry.enabled:
                self.telemetry.event("earl", "watchdog_clear")
            self.health.exit_degraded(self.eard.node.elapsed_s)

    def _disable_policy(self) -> None:
        """Rung 5: contain a policy/model crash for the rest of the job."""
        self._policy_disabled = True
        self.health.policy_failures += 1
        if self.telemetry.enabled:
            self.telemetry.event("earl", "policy_disabled")
        self.health.enter_degraded(self.eard.node.elapsed_s)
        try:
            self._restore_safe_defaults()
        except (PolicyError, ModelError):
            # even default_freqs() misbehaves: leave hardware as-is;
            # the failure is already on the health record.
            pass

    # -- ingress validation -----------------------------------------------------

    @staticmethod
    def _counters_plausible(counters: IterationCounters, wall_seconds: float) -> bool:
        """Reject non-finite / non-physical counter reads at ingress.

        The window accumulator keeps running sums, so a single NaN
        sample would poison every later snapshot — corrupted reads must
        be dropped before they enter the bank.
        """
        values = (
            counters.seconds,
            counters.instructions,
            counters.cycles,
            counters.bytes_transferred,
            counters.avx512_instructions,
            wall_seconds,
        )
        if not all(math.isfinite(v) for v in values):
            return False
        if counters.seconds <= 0 or wall_seconds <= 0:
            return False
        if counters.instructions <= 0 or counters.cycles <= 0:
            return False
        if counters.bytes_transferred < 0 or counters.avx512_instructions < 0:
            return False
        return counters.avx512_instructions <= counters.instructions

    # -- engine interface -----------------------------------------------------

    def on_iteration(
        self,
        counters: IterationCounters,
        mpi_events: tuple[int, ...],
        wall_seconds: float,
    ) -> None:
        """Process one completed application iteration.

        For MPI codes DynAIS must lock onto the loop before windows
        start; non-MPI codes run time-guided (the paper's fallback) and
        every iteration counts.
        """
        if not self._counters_plausible(counters, wall_seconds):
            self.health.samples_rejected += 1
            if self.telemetry.enabled:
                self.telemetry.event("earl", "sample_rejected")
                self.telemetry.counter("earl.samples_rejected")
            return
        self.bank.add_iteration(counters, wall_seconds=wall_seconds)
        if mpi_events:
            for event in mpi_events:
                ev = self.dynais.observe(event)
                if ev is _NEW_LOOP:
                    self._loop_detected = True
                    self._reset_window()
                    self.policy.on_new_loop()
                elif ev is _END_LOOP:
                    self._loop_detected = False
                    self.policy.on_end_loop()
            if not self._loop_detected:
                return
        # Window long enough for a trustworthy power average?
        window = self.bank.snapshot().delta(self._window_start)
        if window.seconds < self.config.signature_min_time_s:
            return
        energy = self.eard.read_dc_energy()
        d_energy = energy.joules - self._energy_start.joules
        d_time = energy.timestamp_s - self._energy_start.timestamp_s
        if d_time <= 0 or d_energy <= 0:
            # Normally the 1 Hz counter just has not published yet and
            # the very next iteration succeeds — but a stalled/dropped
            # meter would previously retry here *forever*, silently.
            self._stalled_polls += 1
            if self._stalled_polls >= self.config.stalled_poll_limit:
                self._stalled_polls = 0
                self.health.windows_stalled += 1
                if self.telemetry.enabled:
                    self.telemetry.event(
                        "earl",
                        "window_stalled",
                        polls=self.config.stalled_poll_limit,
                    )
                self._note_bad_window()
                self._reset_window()
            return
        self._stalled_polls = 0
        try:
            sig = Signature.from_window(
                window,
                dc_energy_j=d_energy,
                dc_seconds=d_time,
                avg_cpu_freq_ghz=self.eard.current_effective_cpu_ghz(),
                avg_imc_freq_ghz=self.eard.current_imc_freq_ghz(),
            )
        except SignatureError:
            self.health.windows_rejected += 1
            if self.telemetry.enabled:
                self.telemetry.event("earl", "window_rejected")
            self._note_bad_window()
            self._reset_window()
            return
        self._note_good_window()
        if self.telemetry.enabled:
            self.telemetry.observe("earl.window_s", window.seconds)
            self.telemetry.event(
                "earl",
                "signature",
                cpi=sig.cpi,
                gbs=sig.gbs,
                dc_power_w=sig.dc_power_w,
                avg_cpu_freq_ghz=sig.avg_cpu_freq_ghz,
                avg_imc_freq_ghz=sig.avg_imc_freq_ghz,
            )
        if not self._policy_disabled:
            try:
                self._state_new_signature(sig)
            except (PolicyError, ModelError):
                self._disable_policy()
        else:
            self.signatures.append(sig)
        self._reset_window()

    def on_app_end(self) -> None:
        """Job teardown: a degraded node is restored to its defaults."""
        if self.degraded:
            # never leave a degraded node on whatever the last partial
            # apply happened to program: defaults are the contract.
            try:
                self._restore_safe_defaults()
            except (PolicyError, ModelError):
                pass
        self.health.finish(self.eard.node.elapsed_s)
        try:
            self.policy.on_app_end()
        except (PolicyError, ModelError):
            self.health.policy_failures += 1

    # -- the Code-1 state machine ------------------------------------------------

    def _state_new_signature(self, sig: Signature) -> None:
        self.signatures.append(sig)
        now = self.eard.node.elapsed_s
        if self.state is EarlState.NODE_POLICY:
            policy_state, freqs = self.policy.node_policy(sig)
            if self.policy.applies_frequencies:
                self.eard.apply_freqs(freqs)
            if policy_state is PolicyState.READY:
                self.state = EarlState.VALIDATE_POLICY
            if self.telemetry.enabled:
                self.telemetry.event(
                    "earl",
                    "decision",
                    earl_state=EarlState.NODE_POLICY.name,
                    policy_state=policy_state.name,
                    cpu_ghz=freqs.cpu_ghz,
                    imc_max_ghz=freqs.imc_max_ghz,
                    cpi=sig.cpi,
                    gbs=sig.gbs,
                    dc_power_w=sig.dc_power_w,
                )
            self.decisions.append(
                PolicyDecision(
                    at_s=now,
                    earl_state=EarlState.NODE_POLICY,
                    policy_state=policy_state,
                    freqs=freqs,
                    signature=sig,
                )
            )
            return
        ok = self.policy.validate(sig)
        if self.telemetry.enabled:
            self.telemetry.event(
                "earl",
                "decision",
                earl_state=EarlState.VALIDATE_POLICY.name,
                policy_state=None,
                cpu_ghz=None,
                imc_max_ghz=None,
                cpi=sig.cpi,
                gbs=sig.gbs,
                dc_power_w=sig.dc_power_w,
            )
            if not ok:
                self.telemetry.event("earl", "validate_failed")
        if not ok:
            self.state = EarlState.NODE_POLICY
            defaults = self.policy.default_freqs()
            self.policy.reset()
            if self.policy.applies_frequencies:
                self.eard.restore_defaults(defaults)
        self.decisions.append(
            PolicyDecision(
                at_s=now,
                earl_state=EarlState.VALIDATE_POLICY,
                policy_state=None,
                freqs=None,
                signature=sig,
            )
        )

    def _reset_window(self) -> None:
        self._window_start = self.bank.snapshot()
        self._energy_start = self.eard.read_dc_energy()
        # window boundaries double as the RAPL polling cadence: >= 10 s,
        # far below the ~22 min wrap period.
        self.eard.poll_rapl()
