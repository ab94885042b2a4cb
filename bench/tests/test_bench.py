"""Self-test of the benchmark, on smoke-size inputs.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from bench import __main__ as cli
from bench import workloads
from bench.compare import compare
from bench.tracer import SpanRecorder, install, traced

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree() -> dict[str, tuple[int, int]]:
    """Every file of the checkout that a run could leave behind or change."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in (".git", "__pycache__", ".bench_tmp")]
        for name in filenames:
            stat = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (stat.st_size, stat.st_mtime_ns)
    return out


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One plain and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("bench") / "runs.json"
    before = _tree()
    last_lines = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "run", "--smoke", "--seconds", "0",
             "--trace", trace, "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last_lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "runs": json.loads(out.read_text())["runs"],
        "last_lines": last_lines,
        "before": before,
        "after": _tree(),
    }


def test_every_benchmark_metric_is_emitted_with_its_unit(smoke_runs):
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for run in smoke_runs["runs"]:
        units = {name: m["unit"] for name, m in run["metrics"].items()}
        assert units == expected[run["trace"]], run["workload"]
        assert all(isinstance(m["value"], (int, float)) for m in run["metrics"].values())
        seen.add((run["workload"], run["trace"]))
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)}


def test_result_line_has_the_contract_keys(smoke_runs):
    for line in smoke_runs["last_lines"]:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["failed"] == 0 and line["attempted"] >= 1


def test_smoke_run_leaves_the_checkout_unchanged(smoke_runs):
    assert smoke_runs["after"] == smoke_runs["before"]
    assert not list((ROOT / ".bench_tmp").glob("*"))


def _tamper_paper(reference):
    reference["paper"]["smoke"] = "0" * 64


def _tamper_service(reference):
    table = reference["service_stream"]["energy_j"]
    table["synt.cpu.1n:1"] *= 1 + 1e-6


@pytest.mark.parametrize(
    "workload,tamper",
    [("paper", _tamper_paper), ("service_stream", _tamper_service)],
)
def test_a_tampered_reference_fails_the_run(workload, tamper, tmp_path, monkeypatch, capsys):
    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    tamper(reference)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(workloads, "REFERENCE_FILE", path)
    code = cli.main(["run", "--smoke", "--seconds", "0", "--workload", workload])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


# -- span arithmetic -----------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = _Clock()
    rec = SpanRecorder(clock)
    rec.enter("a")
    clock.now = 1
    rec.enter("b")
    clock.now = 3
    rec.exit()
    clock.now = 4
    rec.enter("b")
    clock.now = 5
    rec.exit()
    clock.now = 10
    rec.exit()
    spans, _ = rec.snapshot()
    assert spans["a"] == {"calls": 1, "total_s": 10, "self_s": 7}
    assert spans["b"] == {"calls": 2, "total_s": 3, "self_s": 3}


def test_a_span_nested_in_itself_counts_its_total_once():
    clock = _Clock()
    rec = SpanRecorder(clock)
    rec.enter("a")
    clock.now = 1
    rec.enter("a")
    clock.now = 2
    rec.exit()
    clock.now = 4
    rec.exit()
    spans, _ = rec.snapshot()
    assert spans["a"] == {"calls": 2, "total_s": 4, "self_s": 4}


def test_spans_on_another_thread_are_not_children():
    clock = _Clock()
    rec = SpanRecorder(clock)
    rec.enter("loop")

    def bridge_thread():
        clock.now = 1
        rec.enter("drain")
        clock.now = 2
        rec.enter("step")
        clock.now = 4
        rec.exit()
        clock.now = 5
        rec.exit()

    worker = threading.Thread(target=bridge_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    clock.now = 10
    rec.exit()
    spans, _ = rec.snapshot()
    assert spans["loop"] == {"calls": 1, "total_s": 10, "self_s": 10}
    assert spans["drain"] == {"calls": 1, "total_s": 4, "self_s": 2}
    assert spans["step"] == {"calls": 1, "total_s": 2, "self_s": 2}


def test_a_coroutine_span_stays_off_the_stack():
    clock = _Clock()
    rec = SpanRecorder(clock)

    def codec():
        clock.now += 1

    codec_t = traced(rec, "codec", codec)

    async def bridge():
        clock.now = 3
        codec_t()  # another task's work while the bridge awaits
        clock.now = 6

    rec.enter("main")
    clock.now = 2
    asyncio.run(traced(rec, "bridge", bridge)())
    clock.now = 10
    rec.exit()
    spans, _ = rec.snapshot()
    assert spans["bridge"] == {"calls": 1, "total_s": 4, "self_s": 4}
    assert spans["codec"] == {"calls": 1, "total_s": 1, "self_s": 1}
    assert spans["main"] == {"calls": 1, "total_s": 10, "self_s": 9}


def test_a_missing_target_is_reported_not_raised():
    rec = SpanRecorder()
    missing = install(
        rec, {"gone": ("bench.no_such_module:Thing.method", "json:no_such_function")}
    )
    assert missing == ["bench.no_such_module:Thing.method", "json:no_such_function"]


# -- the compare rule --------------------------------------------------------------


def _runs(values, first_in_even_pairs, failed=0):
    return [
        {
            "workload": "paper",
            "trace": 0,
            "failed": failed,
            "started_at": 10 * k + (0 if (k % 2 == 0) == first_in_even_pairs else 5),
            "metrics": {"wall_s": {"value": v, "unit": "s"}},
        }
        for k, v in enumerate(values)
    ]


_SPEC = {
    "workloads": [{"name": "paper"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
}
_BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]


def _verdict(new, base=_BASE, failed=0, alternate=True):
    base_runs = _runs(base, first_in_even_pairs=True)
    new_runs = _runs(new, first_in_even_pairs=not alternate, failed=failed)
    (v,) = compare(base_runs, new_runs, _SPEC)
    return v.verdict


def test_compare_rule():
    faster = [x * 0.8 for x in _BASE]
    assert _verdict(faster) == "improved"
    assert _verdict(faster, failed=1) == "unchanged"
    assert _verdict(faster, alternate=False) == "unchanged"
    assert _verdict(faster[:9]) == "unchanged"  # fewer than 10 pairs
    assert _verdict([x * 1.02 for x in _BASE]) == "unchanged"
    assert _verdict([x * 1.2 for x in _BASE]) == "regressed"
    noisy = [8, 12, 8, 12, 8, 12, 8, 12, 8, 12]
    assert _verdict([x * 1.05 for x in noisy], base=noisy) == "unresolved"
