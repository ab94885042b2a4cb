"""Report rendering helpers."""

from repro.experiments.report import (
    format_figure_series,
    format_table,
    ghz,
    pct,
    side_by_side,
)


class TestFormatters:
    def test_pct(self):
        assert pct(0.0817) == "+8.2%"
        assert pct(-0.01) == "-1.0%"

    def test_pct_zero_from_below_is_positive(self):
        assert pct(-1e-12) == "+0.0%"
        assert pct(-0.0004) == "+0.0%"
        assert pct(-0.0005001) == "-0.1%"

    def test_ghz(self):
        assert ghz(2.386) == "2.39"
        assert ghz(2.4) == "2.40"

    def test_side_by_side_pct(self):
        assert side_by_side(0.05, 0.08) == "+5.0% (paper +8.0%)"

    def test_side_by_side_absolute(self):
        assert side_by_side(1.98, 2.08, as_pct=False) == "1.98 (paper 2.08)"


class TestTable:
    def test_columns_aligned(self):
        text = format_table("T", ["a", "long_header"], [["xxxx", "1"], ["y", "2"]])
        lines = [l for l in text.splitlines() if "|" in l]
        pipes = {tuple(i for i, ch in enumerate(l) if ch == "|") for l in lines}
        assert len(pipes) == 1  # every row's separators line up

    def test_title_and_rule(self):
        text = format_table("My Title", ["h"], [["v"]])
        assert "My Title" in text
        assert "=" in text

    def test_non_string_cells_coerced(self):
        text = format_table("T", ["n"], [[42]])
        assert "42" in text


class TestFigureSeries:
    def test_renders_all_configs(self):
        series = [
            {
                "config": "me",
                "time_penalty": 0.01,
                "power_saving": 0.05,
                "energy_saving": 0.04,
                "avg_cpu_ghz": 2.38,
                "avg_imc_ghz": 2.4,
            },
            {
                "config": "me_eufs",
                "time_penalty": 0.02,
                "power_saving": 0.08,
                "energy_saving": 0.06,
                "avg_cpu_ghz": 2.38,
                "avg_imc_ghz": 1.98,
            },
        ]
        text = format_figure_series("Fig X", series)
        assert "me_eufs" in text
        assert "+8.0%" in text
        assert "1.98" in text
