"""The benchmark's workloads: what each runs, and how its output is checked.

Every workload is a path users run.  Three are one ``repro-ear``
command each; ``service_stream`` is a ``repro-ear serve`` process fed by
one closed-loop client.  Output paths are relative, because every
repetition runs in a fresh directory of its own, so the program's stdout
is the same bytes on every run and can be checked against a digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "reference.json"

#: the service_stream submission mix: workload x simulation seed, drawn
#: from random.Random(--seed); 18 distinct runs, so the run cache
#: absorbs every submission after the first of each pair.
SERVICE_MIX = ("synt.cpu.1n", "synt.mixed.1n", "synt.mem.1n")
SERVICE_SIM_SEEDS = (1, 2, 3, 4, 5, 6)
SERVICE_SCALE = 0.05
#: simulated seconds between arrivals.  A job at this scale runs under
#: 10 s and its EARDBD flush tick fires 30 s after it arrives, so each
#: job finds the cluster idle whatever the pump's batching.  With
#: arrivals closer together the service re-times late arrivals to
#: "now": a pump that falls behind then admits hundreds of jobs at one
#: instant, and conservative backfill's cost grows steeply with queue
#: depth, so one slow moment can stall a drain for minutes.
SERVICE_GAP_S = 40.0


@dataclass(frozen=True)
class Workload:
    """One named workload at its two sizes.

    ``full`` and ``smoke`` are ``repro-ear`` arguments (after the global
    ``-j 1``).  For ``service_stream`` they start the server, and
    ``submissions`` gives the number of ``submit`` requests per size.
    """

    name: str
    why: str
    full: tuple[str, ...]
    smoke: tuple[str, ...]
    submissions: tuple[int, int] = (0, 0)

    @property
    def is_service(self) -> bool:
        """True for the workload driven through ``repro-ear serve``."""
        return self.submissions != (0, 0)

    def args(self, smoke: bool) -> list[str]:
        """The ``repro-ear`` arguments of one repetition."""
        return list(self.smoke if smoke else self.full)

    def n_submissions(self, smoke: bool) -> int:
        """How many ``submit`` requests one service repetition sends."""
        return self.submissions[1 if smoke else 0]


_CLUSTER = (
    "cluster", "--nodes", "{nodes}", "--n-jobs", "{jobs}", "--seed", "0",
    "--scale", "0.05", "--burst", "0.8", "--policies", "me_eufs",
    "--power-market", "--budget-mj", "8", "--summary",
    "--json", "report.json", "--journal-dir", "journal",
)
_SERVE = (
    "serve", "--socket", "ear.sock", "--n-nodes", "8", "--policy", "me_eufs",
    "--budget-mj", "50", "--horizon-s", "2400", "--max-pending", "50000",
    "--no-fsync", "--journal-dir", "journal",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper",
            "Table VI at scale 0.25: 72 MPI-application runs; engine physics, "
            "DynAIS and EARL do almost all the work",
            full=("table", "6", "--scale", "0.25"),
            smoke=("table", "6", "--scale", "0.02"),
        ),
        Workload(
            "learn_grid",
            "the full learning grid: 300 short pinned single-node runs, so "
            "per-run costs (engine set-up, keys, cache, journal) show",
            full=("learn", "--grid", "full", "--validate", "--out", "coefficients",
                  "--journal-dir", "journal"),
            smoke=("learn", "--grid", "coarse", "--kernels", "DGEMM,STREAM,SP-MZ.C",
                   "--validate", "--out", "coefficients", "--journal-dir", "journal"),
        ),
        Workload(
            "cluster_backlog",
            "240 jobs, 80% at t=0, on 16 nodes with the power market: "
            "backfill re-carves a deep queue; the scheduler dominates",
            full=tuple(a.format(nodes=16, jobs=240) for a in _CLUSTER),
            smoke=tuple(a.format(nodes=4, jobs=24) for a in _CLUSTER),
        ),
        Workload(
            "service_stream",
            "12000 closed-loop submits from one client; the run cache absorbs "
            "all but 18 runs, so protocol, admission and pump dominate",
            full=_SERVE,
            smoke=_SERVE,
            submissions=(12000, 300),
        ),
    )
}


# -- submissions ---------------------------------------------------------------


def service_submissions(seed: int, n: int) -> list[dict]:
    """The seeded ``submit`` payloads of one service repetition."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(
            {
                "op": "submit",
                "workload": rng.choice(SERVICE_MIX),
                "seed": rng.choice(SERVICE_SIM_SEEDS),
                "scale": SERVICE_SCALE,
                "submit_s": i * SERVICE_GAP_S,
            }
        )
    return out


# -- references ------------------------------------------------------------------


def load_reference() -> dict:
    """The recorded expected outputs (empty when the file is absent)."""
    try:
        return json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        return {}


def stdout_digest(stdout: str, tmp: str) -> str:
    """SHA-256 of the program's stdout with the temp directory stripped."""
    return hashlib.sha256(stdout.replace(tmp, "<tmp>").encode()).hexdigest()


def expected_energy_j(submissions: list[dict], reference: dict) -> float | None:
    """Σ per-run energy over the submissions, from the recorded table."""
    table = reference.get("service_stream", {}).get("energy_j", {})
    try:
        return math.fsum(table[f"{s['workload']}:{s['seed']}"] for s in submissions)
    except KeyError:
        return None


# -- output checks ---------------------------------------------------------------


def jobs_done(workload: Workload, tmp: Path) -> int:
    """Work one CLI repetition completed: jobs for ``cluster_backlog``,
    otherwise simulations, counted as the entries the run cache wrote."""
    if workload.name == "cluster_backlog":
        try:
            reports = json.loads((tmp / "report.json").read_text())
        except (OSError, ValueError):
            return 0
        return sum(r["n_jobs"] - len(r["failures"]) for r in reports.values())
    return len(list((tmp / "cache").glob("*.run")))


def check_cli_output(
    workload: Workload, tmp: Path, stdout: str, smoke: bool, reference: dict
) -> list[str]:
    """Failed checks of one CLI repetition (empty when all hold)."""
    size = "smoke" if smoke else "full"
    failures = []
    expected = reference.get(workload.name, {}).get(size)
    if expected is None:
        failures.append(f"no reference digest for {workload.name} ({size})")
    elif stdout_digest(stdout, str(tmp)) != expected:
        failures.append(f"stdout digest differs from the {size} reference")
    if workload.name == "learn_grid" and not list((tmp / "coefficients").glob("*.json")):
        failures.append("learn saved no coefficient table")
    if workload.name == "cluster_backlog":
        args = workload.args(smoke)
        n_jobs = int(args[args.index("--n-jobs") + 1])
        failures += check_cluster_report(tmp / "report.json", n_jobs)
    return failures


def check_cluster_report(path: Path, n_jobs: int) -> list[str]:
    """Invariants of a ``cluster --json`` report."""
    try:
        reports = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cluster report unreadable: {exc}"]
    failures = []
    for policy, report in reports.items():
        if report["n_jobs"] != n_jobs:
            failures.append(f"{policy}: n_jobs {report['n_jobs']} != {n_jobs}")
        if report["failures"]:
            failures.append(f"{policy}: {len(report['failures'])} job(s) failed")
        db = report["eardbd"]
        # the final flush empties the buffer, so pending is 0 here.
        if db["received"] != db["forwarded"] + db["dropped"]:
            failures.append(f"{policy}: EARDBD received != forwarded + dropped")
        market = report.get("market")
        if market is None:
            failures.append(f"{policy}: no power-market summary")
            continue
        over = [
            i for i in market["intervals"] if i["granted_w"] > i["budget_w"] * (1 + 1e-12)
        ]
        if over:
            failures.append(f"{policy}: granted W above budget at {len(over)} interval(s)")
    return failures


def check_metrics_text(text: str) -> list[str]:
    """The service's ``/metrics`` body must be valid exposition text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.telemetry.stream import validate_exposition

    try:
        validate_exposition(text)
    except ValueError as exc:
        return [f"/metrics exposition invalid: {exc}"]
    return []
