"""Regression tests for the hot-path accounting fixes.

Pins the two per-socket accounting bugs found while flattening the
engine loop (active-core rounding, idle-socket clock) and the bulk
:meth:`Node.advance_energy` / :meth:`Node.power_affine` contracts the
batched kernel is built on.
"""

from __future__ import annotations

import pytest

from repro.errors import HardwareError
from repro.hw.node import GPU_NODE, SD530, Node, OperatingPoint


def _op(n_active: int, **kwargs) -> OperatingPoint:
    defaults = dict(
        n_active_cores=n_active,
        activity=1.0,
        vpi=0.0,
        traffic_gbs=0.0,
        effective_core_ghz=2.4,
    )
    defaults.update(kwargs)
    return OperatingPoint(**defaults)


# -- satellite: active-core rounding ----------------------------------------


def test_active_cores_distribution_sums_and_balances():
    node = Node(SD530)
    n_sockets = len(node.sockets)
    for n in range(node.config.n_cores + 1):
        dist = node.active_cores_per_socket(n)
        assert sum(dist) == n
        assert max(dist) - min(dist) <= 1
        # remainder lands on the low-numbered sockets
        assert list(dist) == sorted(dist, reverse=True)
        assert len(dist) == n_sockets


def test_active_cores_distribution_rejects_out_of_range():
    node = Node(SD530)
    with pytest.raises(HardwareError):
        node.active_cores_per_socket(-1)
    with pytest.raises(HardwareError):
        node.active_cores_per_socket(node.config.n_cores + 1)


def test_single_active_core_power_exceeds_idle_power():
    """1 active core on 2 sockets used to round to 0 active per socket,
    zeroing the spinning host core's dynamic power (every GPU-offload
    profile).  One busy core must cost more than none."""
    node = Node(GPU_NODE)
    p_idle = node.power(_op(0))
    p_one = node.power(_op(1))
    assert p_one.dc_w > p_idle.dc_w
    # and the extra power sits on socket 0, where the core was placed
    assert p_one.pck_w[0] > p_idle.pck_w[0]
    assert p_one.pck_w[1] == pytest.approx(p_idle.pck_w[1])


def test_single_active_core_frequency_accounted_on_socket_zero():
    node = Node(SD530)
    node.advance(_op(1, effective_core_ghz=2.4), 10.0)
    # the busy core raises socket 0's core-hours average above socket 1's
    assert node.sockets[0].average_freq_ghz() > node.sockets[1].average_freq_ghz()


def test_odd_core_count_not_dropped():
    node = Node(SD530)
    n = node.config.n_cores - 1  # odd split across two sockets
    p_odd = node.power(_op(n))
    p_even = node.power(_op(n - 1))
    assert p_odd.dc_w > p_even.dc_w


# -- satellite: idle-socket clock -------------------------------------------


def test_idle_socket_power_invariant_to_programmed_target():
    """A fully idle socket sits at the idle clock; its power must not
    track whatever IA32_PERF_CTL target happens to be programmed."""
    node = Node(SD530)
    op = _op(1, effective_core_ghz=2.0)
    node.set_core_freq(2.6, privileged=True)
    hi = node.power(op).pck_w[1]
    node.set_core_freq(1.2, privileged=True)
    lo = node.power(op).pck_w[1]
    assert hi == lo


def test_idle_node_power_uses_idle_clock():
    node = Node(SD530)
    node.set_core_freq(2.6, privileged=True)
    p = node.power(_op(0))
    # all cores idle: package carries only base + idle cores + uncore
    params = node.config.power
    expected_cores_w = node.sockets[0].n_cores * params.core_idle_w
    for s, pck in zip(node.sockets, p.pck_w):
        vu = params.vuncore.volts(s.dies[0].freq_ghz)
        uncore_w = params.uncore_dyn_w * s.dies[0].freq_ghz * vu * vu
        assert pck == pytest.approx(params.pck_base_w + expected_cores_w + uncore_w)


# -- batched-kernel contracts -----------------------------------------------


def test_power_affine_decomposes_power_exactly():
    node = Node(SD530)
    for traffic in (0.0, 12.5, 87.3):
        op = _op(node.config.n_cores, traffic_gbs=traffic, vpi=0.3, activity=0.8)
        p = node.power(op)
        p0, pck_slopes, dram_slope = node.power_affine(op)
        for w, w0, slope in zip(p.pck_w, p0.pck_w, pck_slopes):
            assert w == pytest.approx(w0 + slope * traffic, rel=1e-12)
        assert p.dram_w == pytest.approx(p0.dram_w + dram_slope * traffic, rel=1e-12)
        assert p.dc_w == pytest.approx(
            p0.dc_w + (sum(pck_slopes) + dram_slope) * traffic, rel=1e-12
        )


def test_advance_energy_matches_advance():
    """advance_energy(power * dt) must leave every sensor exactly where
    advance(op, dt) does — the committed kernel's equivalence basis."""
    op = _op(20, traffic_gbs=40.0, activity=0.9)
    dt = 3.7
    a, b = Node(SD530), Node(SD530)
    p = a.power(op)
    a.advance(op, dt)
    b.advance_energy(
        pck_j=[w * dt for w in p.pck_w],
        dram_j=p.dram_w * dt,
        dc_j=p.dc_w * dt,
        n_active_per_socket=b.active_cores_per_socket(op.n_active_cores),
        effective_ghz=op.effective_core_ghz,
        seconds=dt,
    )
    assert b.elapsed_s == a.elapsed_s
    assert b.pck_energy_j == a.pck_energy_j
    assert b.dc_meter.exact_joules == pytest.approx(a.dc_meter.exact_joules, rel=1e-12)
    for ca, cb in zip(a.rapl.pck, b.rapl.pck):
        assert cb.raw() == ca.raw()
    assert b.rapl.dram.raw() == a.rapl.dram.raw()
    assert b.average_cpu_freq_ghz() == a.average_cpu_freq_ghz()
    assert b.average_imc_freq_ghz() == a.average_imc_freq_ghz()


def test_advance_energy_zero_seconds_is_a_no_op():
    node = Node(SD530)
    node.advance_energy(
        pck_j=[1.0, 1.0],
        dram_j=1.0,
        dc_j=3.0,
        n_active_per_socket=(1, 0),
        effective_ghz=2.0,
        seconds=0.0,
    )
    assert node.elapsed_s == 0.0
    assert node.pck_energy_j == 0.0


def test_advance_energy_rejects_negative_time():
    node = Node(SD530)
    with pytest.raises(HardwareError):
        node.advance_energy(
            pck_j=[0.0, 0.0],
            dram_j=0.0,
            dc_j=0.0,
            n_active_per_socket=(0, 0),
            effective_ghz=2.0,
            seconds=-1.0,
        )
