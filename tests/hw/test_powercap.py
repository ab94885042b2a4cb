"""RAPL package power limit (MSR 0x610) and its enforcement."""

import pytest

from repro.sim.engine import RunSpec, SimulationEngine
from tests.conftest import make_fast_workload


class TestMsrEncoding:
    def test_disabled_by_default(self, node):
        assert node.sockets[0].msr.read_pkg_power_limit_w() is None

    def test_write_read_roundtrip(self, node):
        node.set_pkg_power_limit(120.0, privileged=True)
        assert node.sockets[0].msr.read_pkg_power_limit_w() == pytest.approx(120.0)

    def test_eighth_watt_units(self, node):
        node.set_pkg_power_limit(99.9, privileged=True)
        got = node.sockets[0].msr.read_pkg_power_limit_w()
        assert got == pytest.approx(99.875)  # snapped to 1/8 W

    def test_disable(self, node):
        node.set_pkg_power_limit(120.0, privileged=True)
        node.set_pkg_power_limit(None, privileged=True)
        assert node.sockets[0].msr.read_pkg_power_limit_w() is None

    def test_invalid_limits_rejected(self, node):
        with pytest.raises(ValueError):
            node.set_pkg_power_limit(0.0, privileged=True)
        with pytest.raises(ValueError):
            node.set_pkg_power_limit(9999.0, privileged=True)

    def test_unprivileged_write_denied(self, node):
        from repro.errors import MsrPermissionError

        with pytest.raises(MsrPermissionError):
            node.set_pkg_power_limit(100.0)


class TestEnforcement:
    def run_capped(self, cap_w, **wl_kwargs):
        wl = make_fast_workload(n_iterations=50, **wl_kwargs)
        engine = SimulationEngine(RunSpec(wl, seed=1, noise_sigma=0.0))
        if cap_w is not None:
            for node in engine.cluster:
                node.set_pkg_power_limit(cap_w, privileged=True)
        return engine.run()

    def test_uncapped_socket_exceeds_tight_cap(self):
        free = self.run_capped(None)
        assert free.avg_dc_power_w > 280  # there is something to cap

    def test_cap_throttles_cores_and_power(self):
        free = self.run_capped(None)
        capped = self.run_capped(95.0)
        assert capped.avg_cpu_freq_ghz < free.avg_cpu_freq_ghz - 0.1
        assert capped.avg_dc_power_w < free.avg_dc_power_w
        assert capped.time_s > free.time_s

    def test_cap_actually_respected(self):
        capped = self.run_capped(95.0)
        # per-socket PCK power must be at/below the cap
        per_socket = capped.avg_pck_power_w / 2
        assert per_socket <= 95.0 + 1.0

    def test_generous_cap_changes_nothing(self):
        free = self.run_capped(None)
        roomy = self.run_capped(200.0)
        assert roomy.time_s == pytest.approx(free.time_s, rel=1e-9)

    def test_floor_is_min_frequency(self):
        starved = self.run_capped(30.0)  # unreachably low cap
        assert starved.avg_cpu_freq_ghz <= 1.05


class TestPowercapUfsInteraction:
    def test_lower_uncore_buys_core_headroom(self):
        """The emergent effect: under a tight package cap, pinning the
        uncore low frees budget and the cores run *faster*."""
        wl = make_fast_workload(n_iterations=60)

        def run(pin_uncore):
            engine = SimulationEngine(
                RunSpec(wl, seed=1, noise_sigma=0.0, pin_uncore_ghz=pin_uncore)
            )
            for node in engine.cluster:
                node.set_pkg_power_limit(100.0, privileged=True)
            return engine.run()

        uncore_high = run(2.4)
        uncore_low = run(1.4)
        assert uncore_low.avg_cpu_freq_ghz > uncore_high.avg_cpu_freq_ghz + 0.05

    def test_eard_exposes_powercap(self, node):
        from repro.ear.eard import Eard

        eard = Eard(node)
        eard.set_pkg_power_limit(110.0)
        assert node.sockets[0].msr.read_pkg_power_limit_w() == pytest.approx(110.0)
