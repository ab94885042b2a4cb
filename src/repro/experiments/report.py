"""ASCII rendering of tables and figure series, paper-vs-measured.

The benchmark harness pipes every artefact through these renderers so
``pytest benchmarks/ --benchmark-only`` output doubles as the
reproduction record (and EXPERIMENTS.md is generated from the same
code).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "pct", "ghz", "format_figure_series", "side_by_side"]


def pct(x: float) -> str:
    """Render a fraction as a percentage.

    A value that rounds to zero renders ``+0.0%`` from either side, so a
    float-noise difference cannot flip the sign of a zero saving.
    """
    s = f"{100.0 * x:+.1f}%"
    return "+0.0%" if s == "-0.0%" else s


def ghz(x: float) -> str:
    """Format a frequency in GHz for the report tables."""
    return f"{x:.2f}"


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Fixed-width table with a title rule."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    head = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "\n".join(
        " | ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows
    )
    rule = "=" * len(sep)
    return f"\n{rule}\n{title}\n{rule}\n{head}\n{sep}\n{body}\n"


def format_figure_series(title: str, series: Sequence[Mapping]) -> str:
    """Render a figure's bar groups as a table."""
    headers = ["config", "time penalty", "power saving", "energy saving", "cpu", "imc"]
    rows = [
        [
            s["config"],
            pct(s["time_penalty"]),
            pct(s["power_saving"]),
            pct(s["energy_saving"]),
            ghz(s["avg_cpu_ghz"]),
            ghz(s["avg_imc_ghz"]),
        ]
        for s in series
    ]
    return format_table(title, headers, rows)


def side_by_side(measured: float, paper: float, *, as_pct: bool = True) -> str:
    """One cell showing 'measured (paper X)'."""
    if as_pct:
        return f"{pct(measured)} (paper {pct(paper)})"
    return f"{measured:.2f} (paper {paper:.2f})"
