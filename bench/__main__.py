"""Command line of the benchmark.

    python -m bench run [--workload NAME ...] [--seed S] [--seconds T]
                        [--trace [0|1]] [--repeats R] [--smoke] [--out FILE]
    python -m bench compare BASE.json NEW.json
    python -m bench reference

``run`` prints every metric with its unit and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
1 when any output check fails, and 2 without a result when the
checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

from . import compare as compare_mod
from . import harness
from .workloads import REFERENCE_FILE, WORKLOADS, load_reference

BENCHMARK_FILE = harness.ROOT / "BENCHMARK.json"


def _benchmark_spec() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def _print_run(result: dict) -> None:
    head = (
        f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
        f"{' smoke' if result['smoke'] else ''}: {result['repetitions']} repetition(s), "
        f"{result['attempted']} operation(s), {result['failed']} failed"
    )
    print(head)
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    if result["spans"] and result["spans"]["missing"]:
        print("  missing trace targets: " + ", ".join(result["spans"]["missing"]))
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    sys.stdout.flush()


def _summary(results: list[dict]) -> dict:
    """The last line: one run's metrics, or per-workload medians."""
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {}
        for result in results:
            for name, metric in result["metrics"].items():
                key = f"{result['workload']}.{name}"
                metrics.setdefault(key, {"values": [], "unit": metric["unit"]})
                metrics[key]["values"].append(metric["value"])
        metrics = {
            k: {"value": statistics.median(m["values"]), "unit": m["unit"]}
            for k, m in metrics.items()
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _append_runs(path: Path, results: list[dict]) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    path.write_text(json.dumps({"runs": runs + results}, indent=1) + "\n")


def cmd_run(args) -> int:
    """Measure the chosen workloads; print metrics and the result line."""
    if not harness.program_available():
        print(f"no program at {harness.SRC / 'repro'}; nothing to run", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = _benchmark_spec()["run_seconds"]
    reference = load_reference()
    results = []
    with harness.one_cpu():
        for name in args.workload or list(WORKLOADS):
            for k in range(args.repeats):
                result = harness.run_workload(
                    name,
                    seed=args.seed + k,
                    seconds=seconds,
                    trace=bool(args.trace),
                    smoke=args.smoke,
                    reference=reference,
                )
                _print_run(result)
                results.append(result)
                if args.out:
                    _append_runs(Path(args.out), [result])
    summary = _summary(results)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def cmd_compare(args) -> int:
    """Print a verdict per (workload, metric); exit 1 on a regression."""
    base = json.loads(Path(args.base).read_text())["runs"]
    new = json.loads(Path(args.new).read_text())["runs"]
    verdicts = compare_mod.compare(base, new, _benchmark_spec())
    print(compare_mod.render(verdicts))
    return 1 if any(v.verdict == "regressed" for v in verdicts) else 0


def cmd_reference(_args) -> int:
    """Record this commit's outputs as the reference."""
    if not harness.program_available():
        print(f"no program at {harness.SRC / 'repro'}", file=sys.stderr)
        return 2
    reference = harness.record_reference()
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m bench`` argument tree."""
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="measure workloads and check their outputs")
    p_run.add_argument(
        "--workload", action="append", choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    p_run.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p_run.add_argument(
        "--seconds", type=float, default=None,
        help="measure repetitions for this long (default: run_seconds of BENCHMARK.json)",
    )
    p_run.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced repetition",
    )
    p_run.add_argument(
        "--repeats", type=int, default=1,
        help="measured runs per workload, with seeds S, S+1, ... (default 1)",
    )
    p_run.add_argument("--smoke", action="store_true", help="small inputs, for tests")
    p_run.add_argument("--out", default=None, help="append the runs to this JSON file")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="judge NEW runs against BASE runs")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    p_cmp.set_defaults(fn=cmd_compare)

    p_ref = sub.add_parser("reference", help="record this commit's outputs as the reference")
    p_ref.set_defaults(fn=cmd_reference)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; SIGTERM unwinds like Ctrl-C so child processes are killed."""
    args = build_parser().parse_args(argv)

    def _interrupt(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
