"""Workload container semantics."""

import pytest

from repro.errors import ExperimentError
from repro.hw.node import SD530
from repro.workloads.app import Workload
from repro.workloads.generator import synthetic_profile


def make(n_iterations=100, n_phases=1) -> Workload:
    phases = tuple(
        (
            synthetic_profile(
                name=f"p{i}",
                node_config=SD530,
                core_share=0.8,
                unc_share=0.1,
                mem_share=0.05,
            ),
            n_iterations,
        )
        for i in range(n_phases)
    )
    return Workload(
        name="wl",
        node_config=SD530,
        n_nodes=2,
        n_processes=80,
        phases=phases,
    )


class TestBasics:
    def test_total_ref_time(self):
        wl = make(n_iterations=100, n_phases=2)
        assert wl.total_ref_time_s == pytest.approx(100.0)

    def test_main_phase_is_longest(self):
        p_long = synthetic_profile(
            name="long", node_config=SD530, core_share=0.8, unc_share=0.1, mem_share=0.05,
            iteration_s=2.0,
        )
        p_short = synthetic_profile(
            name="short", node_config=SD530, core_share=0.8, unc_share=0.1, mem_share=0.05,
        )
        wl = Workload(
            name="wl", node_config=SD530, n_nodes=1, n_processes=1,
            phases=((p_short, 10), (p_long, 10)),
        )
        assert wl.main_phase.name == "long"

    def test_needs_phases(self):
        with pytest.raises(ExperimentError):
            Workload(name="w", node_config=SD530, n_nodes=1, n_processes=1, phases=())

    def test_needs_positive_iterations(self):
        p = synthetic_profile(
            name="p", node_config=SD530, core_share=0.8, unc_share=0.1, mem_share=0.05
        )
        with pytest.raises(ExperimentError):
            Workload(
                name="w", node_config=SD530, n_nodes=1, n_processes=1, phases=((p, 0),)
            )

    def test_needs_nodes(self):
        p = synthetic_profile(
            name="p", node_config=SD530, core_share=0.8, unc_share=0.1, mem_share=0.05
        )
        with pytest.raises(ExperimentError):
            Workload(
                name="w", node_config=SD530, n_nodes=0, n_processes=1, phases=((p, 1),)
            )


class TestCalibration:
    def test_calibrated_is_idempotent(self):
        wl = make().calibrated()
        assert wl.calibrated() is wl

    def test_calibrated_preserves_structure(self):
        wl = make(n_phases=2)
        cal = wl.calibrated()
        assert cal.name == wl.name
        assert len(cal.phases) == 2
        assert [n for _, n in cal.phases] == [n for _, n in wl.phases]


class TestScaling:
    def test_scaled_iterations(self):
        wl = make(n_iterations=100)
        assert wl.scaled_iterations(0.25).phases[0][1] == 25

    def test_scaling_never_drops_to_zero(self):
        wl = make(n_iterations=3)
        assert wl.scaled_iterations(0.01).phases[0][1] == 1

    def test_invalid_factor_rejected(self):
        with pytest.raises(ExperimentError):
            make().scaled_iterations(0.0)

    @pytest.mark.parametrize("factor", [float("inf"), float("nan"), 1e308])
    def test_factor_must_keep_counts_finite(self, factor):
        with pytest.raises(ExperimentError, match="scale factor"):
            make().scaled_iterations(factor)
