"""Socket model: DVFS target, AVX-512 effective clock, accounting."""

import pytest

from repro.errors import FrequencyError, MsrPermissionError
from repro.hw.cpu import Socket
from repro.hw.msr import UncoreRatioLimit
from repro.hw.pstates import XEON_6148


@pytest.fixture()
def socket() -> Socket:
    return Socket(pstates=XEON_6148)


class TestReset:
    def test_starts_at_nominal_unpinned(self, socket):
        assert socket.target_freq_ghz == pytest.approx(2.4)
        assert not socket.pinned

    def test_uncore_limits_seeded_from_silicon(self, socket):
        limits = socket.msr.read_uncore_limits()
        assert limits.min_ratio == 12
        assert limits.max_ratio == 24

    def test_default_epb_balanced(self, socket):
        assert socket.msr.read_epb() == 6


class TestFrequencyControl:
    def test_set_target_pins(self, socket):
        socket.set_target_freq(2.0, privileged=True)
        assert socket.target_freq_ghz == pytest.approx(2.0)
        assert socket.pinned

    def test_unprivileged_set_denied(self, socket):
        with pytest.raises(MsrPermissionError):
            socket.set_target_freq(2.0)
        assert not socket.pinned

    def test_out_of_range_ratio_rejected(self, socket):
        with pytest.raises(FrequencyError):
            socket.set_target_freq(9.9, privileged=True)

    def test_uncore_msr_write_applies_to_domain(self, socket):
        socket.msr.write_uncore_limits(
            UncoreRatioLimit(min_ratio=12, max_ratio=18), privileged=True
        )
        assert socket.dies[0].freq_ghz <= 1.8

    def test_perf_status_mirrors_ctl(self, socket):
        socket.set_target_freq(1.8, privileged=True)
        assert (socket.msr.read(0x198) >> 8) & 0xFF == 18


class TestEffectiveFrequency:
    def test_scalar_runs_at_target(self, socket):
        assert socket.effective_freq_ghz(0.0) == pytest.approx(2.4)

    def test_pure_avx512_clamped_to_licence(self, socket):
        assert socket.effective_freq_ghz(1.0) == pytest.approx(2.2)

    def test_mixed_vpi_harmonic_blend(self, socket):
        eff = socket.effective_freq_ghz(0.5)
        expected = 1.0 / (0.5 / 2.4 + 0.5 / 2.2)
        assert eff == pytest.approx(expected)
        assert 2.2 < eff < 2.4

    def test_below_licence_not_clamped(self, socket):
        socket.set_target_freq(1.8, privileged=True)
        assert socket.effective_freq_ghz(1.0) == pytest.approx(1.8)

    def test_invalid_vpi_rejected(self, socket):
        with pytest.raises(FrequencyError):
            socket.effective_freq_ghz(1.5)

    def test_last_effective_tracked(self, socket):
        socket.account(1.0, n_active=20, effective_ghz=2.2)
        assert socket.last_effective_ghz == pytest.approx(2.2)


class TestAveraging:
    def test_all_cores_busy_average_near_target(self, socket):
        socket.account(10.0, n_active=20, effective_ghz=2.4)
        # slight halt fraction: the paper's 2.38 vs 2.40
        assert 2.37 < socket.average_freq_ghz() < 2.40

    def test_idle_cores_drag_average_down(self, socket):
        socket.account(10.0, n_active=1, effective_ghz=2.4)
        avg = socket.average_freq_ghz()
        # 1 busy core at 2.4, 19 idle at 1.0
        assert 1.0 < avg < 1.2

    def test_reset_accounting(self, socket):
        socket.account(10.0, n_active=20, effective_ghz=2.4)
        socket.reset_accounting()
        socket.account(1.0, n_active=20, effective_ghz=1.2)
        assert socket.average_freq_ghz() < 1.25

    def test_negative_time_rejected(self, socket):
        with pytest.raises(FrequencyError):
            socket.account(-1.0, n_active=1, effective_ghz=2.4)
