"""EARD hardening: MSR retry/backoff, wrap-aware RAPL, sensor views."""

import pytest

from repro.ear.eard import Eard
from repro.ear.policies.api import NodeFreqs
from repro.errors import TransientMsrError
from repro.hw.rapl import SKL_ENERGY_UNIT_J

FREQS = NodeFreqs(cpu_ghz=2.1, imc_max_ghz=2.0, imc_min_ghz=1.2)


class FlakyMsr:
    """Injector stub: the first ``n_failures`` write attempts fail."""

    def __init__(self, n_failures: int) -> None:
        self.n_failures = n_failures
        self.attempts = 0

    def check_msr_write(self) -> None:
        self.attempts += 1
        if self.attempts <= self.n_failures:
            raise TransientMsrError(f"transient failure {self.attempts}")

    def filter_energy_reading(self, reading):
        return reading


class TestMsrRetry:
    def test_clean_apply_needs_no_retry(self, node):
        eard = Eard(node)
        assert eard.apply_freqs(FREQS) is True
        assert not eard.degraded
        assert eard.health.msr_retries == 0
        assert node.core_target_ghz == pytest.approx(2.1)

    def test_transient_failures_retried_to_success(self, node):
        inj = FlakyMsr(3)
        eard = Eard(node, injector=inj, msr_write_attempts=5)
        assert eard.apply_freqs(FREQS) is True
        assert not eard.degraded
        assert inj.attempts == 4  # 3 failures + the landing write
        assert eard.health.msr_retries == 3
        assert eard.health.msr_apply_failures == 0
        assert node.core_target_ghz == pytest.approx(2.1)

    def test_exhausted_retries_degrade_not_raise(self, node):
        before = node.core_target_ghz
        eard = Eard(node, injector=FlakyMsr(10**9), msr_write_attempts=3)
        assert eard.apply_freqs(FREQS) is False  # swallowed, reported
        assert eard.degraded
        assert eard.health.msr_retries == 2
        assert eard.health.msr_apply_failures == 1
        # hardware keeps the previous selection
        assert node.core_target_ghz == pytest.approx(before)

    def test_success_after_exhaustion_clears_degraded(self, node):
        inj = FlakyMsr(3)
        eard = Eard(node, injector=inj, msr_write_attempts=2)
        assert eard.apply_freqs(FREQS) is False
        assert eard.degraded
        assert eard.apply_freqs(FREQS) is True  # inj recovered (3 < 2+2)
        assert not eard.degraded


class TestRaplWrapAccounting:
    def test_accumulation_matches_energy_across_wraps(self, node):
        """Satellite fix: the raw register sum under-reports by one full
        wrap every ~22 min at 200 W; the accumulated deltas must not."""
        eard = Eard(node)
        wrap_j = (1 << 32) * SKL_ENERGY_UNIT_J  # ~262 kJ
        added = 0.0
        # ~1.5 wraps per socket, polled well inside the wrap period
        for _ in range(80):
            for counter in node.rapl.pck:
                counter.add_energy(5000.0)
            added += 5000.0 * len(node.rapl.pck)
            eard.poll_rapl()
        assert added > wrap_j  # the scenario actually wraps
        accumulated = eard.read_rapl_pck_joules()
        assert accumulated == pytest.approx(added, rel=1e-6)
        # the naive raw sum lost at least one full wrap per socket
        naive = node.rapl.pck_joules_total()
        assert accumulated - naive >= wrap_j

    def test_no_double_counting_on_idle_polls(self, node):
        eard = Eard(node)
        for counter in node.rapl.pck:
            counter.add_energy(1234.0)
        first = eard.read_rapl_pck_joules()
        second = eard.read_rapl_pck_joules()  # nothing happened since
        assert second == first


class TestSocketAveragedSensors:
    def test_effective_cpu_averages_busy_sockets(self, node):
        """Satellite fix: the old code returned socket 0's view only."""
        eard = Eard(node)
        node.sockets[0].last_effective_ghz = 2.0
        node.sockets[1].last_effective_ghz = 3.0
        assert eard.current_effective_cpu_ghz() == pytest.approx(2.5)

    def test_effective_cpu_skips_idle_sockets(self, node):
        eard = Eard(node)
        node.sockets[0].last_effective_ghz = 2.0
        node.sockets[1].last_effective_ghz = 0.0  # never ran
        assert eard.current_effective_cpu_ghz() == pytest.approx(2.0)

    def test_effective_cpu_falls_back_to_target(self, node):
        eard = Eard(node)
        for s in node.sockets:
            s.last_effective_ghz = 0.0
        assert eard.current_effective_cpu_ghz() == pytest.approx(
            node.core_target_ghz
        )

    def test_imc_freq_averages_sockets(self, node):
        eard = Eard(node)
        node.sockets[0].dies[0].set_ratio(24)
        node.sockets[1].dies[0].set_ratio(18)
        expected = (
            node.sockets[0].dies[0].freq_ghz + node.sockets[1].dies[0].freq_ghz
        ) / 2
        assert eard.current_imc_freq_ghz() == pytest.approx(expected)
        assert eard.current_imc_freq_ghz() != node.sockets[0].dies[0].freq_ghz
