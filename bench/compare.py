"""Judge a change against its parent from two files of benchmark runs.

For every (workload, end-to-end metric) pair the k-th run of a
workload in BASE is paired with the k-th run in NEW.  The rule:

* **improved** — at least 10 pairs, run in alternating order (which
  side ran first flips from pair to pair), NEW better in at least 9/10
  of all pairs (ties count for neither side), the medians differing by
  more than BASE's interquartile range, and NEW failing no more
  operations than BASE;
* otherwise the pair is judged against the metric's bound from
  ``BENCHMARK.json``: **unresolved** when BASE's own spread (IQR over
  median) is wider than the bound, unless every NEW run beats every
  BASE run; **regressed** when NEW's median is worse than BASE's by
  more than the bound; **unchanged** otherwise.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """The judgement of one (workload, metric) pair."""

    workload: str
    metric: str
    unit: str
    n_pairs: int
    wins: int
    base: tuple[float, float, float]
    new: tuple[float, float, float]
    verdict: str
    note: str = ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _alternated(base_runs: list[dict], new_runs: list[dict]) -> bool:
    firsts = [b["started_at"] < n["started_at"] for b, n in zip(base_runs, new_runs)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def judge(
    workload: str,
    metric: dict,
    base_runs: list[dict],
    new_runs: list[dict],
) -> Verdict:
    """Apply the rule to one metric over the paired runs of one workload."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    n = min(len(base_runs), len(new_runs))
    base_runs, new_runs = base_runs[:n], new_runs[:n]
    base = [r["metrics"][name]["value"] for r in base_runs]
    new = [r["metrics"][name]["value"] for r in new_runs]

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    wins = sum(better(x, y) for x, y in zip(new, base))
    bq, nq = quartiles(base), quartiles(new)
    gain = (bq[1] - nq[1]) if lower else (nq[1] - bq[1])
    iqr = bq[2] - bq[0]
    failed_more = sum(r["failed"] for r in new_runs) > sum(r["failed"] for r in base_runs)
    alternated = _alternated(base_runs, new_runs)
    notes = []
    if n < 10:
        notes.append(f"only {n} pair(s)")
    if not alternated:
        notes.append("runs not alternated")
    if failed_more:
        notes.append("more failed operations than the parent")
    if (
        n >= 10
        and alternated
        and not failed_more
        and wins >= 0.9 * n
        and gain > iqr
    ):
        verdict = "improved"
    elif iqr / bq[1] > bound and not all(better(x, y) for x in new for y in base):
        verdict = "unresolved"
        notes.append(f"parent spread {iqr / bq[1]:.1%} > bound {bound:.0%}")
    elif -gain / bq[1] > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return Verdict(
        workload, name, metric["unit"], n, wins, bq, nq, verdict, "; ".join(notes)
    )


def compare(base: list[dict], new: list[dict], benchmark: dict) -> list[Verdict]:
    """Verdicts for every workload present in both files and every metric."""
    out = []
    workloads = [w["name"] for w in benchmark["workloads"]]
    for workload in workloads:
        base_runs = [r for r in base if r["workload"] == workload and not r["trace"]]
        new_runs = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not base_runs or not new_runs:
            continue
        for metric in benchmark["end_to_end"]:
            out.append(judge(workload, metric, base_runs, new_runs))
    return out


def render(verdicts: list[Verdict]) -> str:
    """One line per (workload, metric)."""
    lines = [
        f"{'workload':<16} {'metric':<15} {'pairs':>5} {'wins':>4}  "
        f"{'base median [q1, q3]':<30} {'new median [q1, q3]':<30} verdict"
    ]
    for v in verdicts:
        def fmt(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {v.unit}"

        note = f"  ({v.note})" if v.note else ""
        lines.append(
            f"{v.workload:<16} {v.metric:<15} {v.n_pairs:>5} {v.wins:>4}  "
            f"{fmt(v.base):<30} {fmt(v.new):<30} {v.verdict}{note}"
        )
    return "\n".join(lines)
