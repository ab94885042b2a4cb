"""Trace rendering and descent summaries."""

import pytest

from repro.ear.config import EarConfig
from repro.experiments.trace import (
    descent_summary,
    render_timeline,
    settled_imc_max_ghz,
)
from repro.sim.engine import run_workload
from tests.conftest import make_fast_workload


@pytest.fixture(scope="module")
def traced_run():
    wl = make_fast_workload(n_iterations=200)
    return run_workload(wl, ear_config=EarConfig(), seed=1, telemetry=True)


class TestTimeline:
    def test_renders_both_domains(self, traced_run):
        text = render_timeline(traced_run)
        assert "cpu [" in text
        assert "imc [" in text
        assert traced_run.workload in text

    def test_descent_visible_in_imc_row(self, traced_run):
        text = render_timeline(traced_run)
        imc_line = [l for l in text.splitlines() if "imc [" in l][0]
        # the sparkline must not be flat: at least two glyphs appear
        spark = imc_line.split("]")[-1].strip()
        assert len(set(spark)) >= 2

    def test_respects_width(self, traced_run):
        text = render_timeline(traced_run, width=20)
        imc_line = [l for l in text.splitlines() if "imc [" in l][0]
        spark = imc_line.split("]")[-1].strip()
        assert len(spark) <= 20

    def test_untraced_run_rejected(self):
        wl = make_fast_workload(n_iterations=30)
        result = run_workload(wl, ear_config=EarConfig(), seed=1)
        with pytest.raises(ValueError):
            render_timeline(result)


class TestDescentSummary:
    def test_one_row_per_decision(self, traced_run):
        rows = descent_summary(traced_run)
        assert len(rows) == len(traced_run.decisions)

    def test_rows_pair_decision_with_signature(self, traced_run):
        rows = descent_summary(traced_run)
        first = rows[0]
        assert first["earl_state"] == "NODE_POLICY"
        assert first["cpi"] > 0
        assert first["dc_power_w"] > 0
        assert first["imc_max_ghz"] is not None

    def test_imc_ceiling_decreases_through_descent(self, traced_run):
        ceilings = [
            r["imc_max_ghz"]
            for r in descent_summary(traced_run)
            if r["imc_max_ghz"] is not None and r["policy_state"] == "CONTINUE"
        ]
        assert ceilings == sorted(ceilings, reverse=True)


class TestSettledCeiling:
    def test_settled_value_matches_last_ready(self, traced_run):
        settled = settled_imc_max_ghz(traced_run)
        assert settled is not None
        assert 1.2 <= settled <= 2.4

    def test_none_without_decisions(self):
        wl = make_fast_workload(n_iterations=30)
        result = run_workload(wl, seed=1)  # no policy
        assert settled_imc_max_ghz(result) is None


@pytest.fixture(scope="module")
def telemetry_run():
    """A two-node run carrying per-node telemetry."""
    wl = make_fast_workload(n_iterations=200, n_nodes=2)
    return run_workload(wl, ear_config=EarConfig(), seed=1, telemetry=True)


class TestNodeParameter:
    def test_header_names_the_node(self, traced_run):
        assert "node 0" in render_timeline(traced_run)

    def test_out_of_range_node_rejected(self, traced_run):
        with pytest.raises(ValueError, match="out of range"):
            render_timeline(traced_run, node=5)
        with pytest.raises(ValueError, match="out of range"):
            descent_summary(traced_run, node=-1)

    def test_nonzero_node_requires_telemetry(self, telemetry_run):
        # telemetry_run has it; a plain run has no timeline for any node
        wl = make_fast_workload(n_iterations=30, n_nodes=2)
        plain = run_workload(wl, ear_config=EarConfig(), seed=1)
        for node in range(2):
            with pytest.raises(ValueError, match="telemetry=True"):
                render_timeline(plain, node=node)
        with pytest.raises(ValueError):
            descent_summary(plain, node=1)

    def test_nonzero_node_renders_from_telemetry(self, telemetry_run):
        text = render_timeline(telemetry_run, node=1)
        assert "node 1" in text
        assert "cpu [" in text and "imc [" in text

    def test_descent_rows_label_their_node(self, telemetry_run):
        rows0 = descent_summary(telemetry_run, node=0)
        rows1 = descent_summary(telemetry_run, node=1)
        assert rows0 and all(r["node"] == 0 for r in rows0)
        assert rows1 and all(r["node"] == 1 for r in rows1)
        # telemetry-derived rows carry the same shape as decision rows
        assert set(rows0[0]) == set(rows1[0])
        assert rows1[0]["cpi"] > 0


class TestAxisDerivation:
    def test_axis_comes_from_hardware_ranges(self, traced_run):
        # SD530: CPU P-states span 1.0-2.6 GHz, uncore 1.2-2.4 GHz
        assert traced_run.cpu_freq_range_ghz == (1.0, 2.6)
        assert traced_run.imc_freq_range_ghz == (1.2, 2.4)
        text = render_timeline(traced_run)
        assert "axis 1.0-2.6" in text
        assert "axis 1.2-2.4" in text

    def test_axis_falls_back_to_data_extent(self, traced_run):
        import dataclasses

        legacy = dataclasses.replace(
            traced_run, cpu_freq_range_ghz=None, imc_freq_range_ghz=None
        )
        text = render_timeline(legacy)
        assert "axis" in text  # renders, axis from the samples themselves
