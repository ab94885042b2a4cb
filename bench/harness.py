"""Run one benchmark workload: fresh processes, metrics and output checks.

Each repetition launches the program as a new process in a new
directory under ``.bench_tmp/`` of the checkout, which holds its run
cache, journal, outputs and socket and is deleted afterwards.  The
program is never imported into this process for timing; the per-layer
numbers come from a separate traced repetition (see ``tracer.py``).
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .tracer import SPANS
from .workloads import (
    SERVICE_GAP_S,
    SERVICE_MIX,
    SERVICE_SCALE,
    SERVICE_SIM_SEEDS,
    WORKLOADS,
    Workload,
    check_cli_output,
    check_metrics_text,
    expected_energy_j,
    jobs_done,
    service_submissions,
    stdout_digest,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
TRACER = Path(__file__).resolve().parent / "tracer.py"

#: name -> (unit, better) of every end-to-end metric.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "jobs_per_s": ("jobs/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better) of every per-layer metric of a traced run.
LAYER_METRICS = {
    **{
        f"{span}.{kind}": unit
        for span in SPANS
        for kind, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))
    },
    "engine.node_iters": ("count", "lower"),
    "engine.node_iters_per_s": ("1/s", "higher"),
    "cache.attempts": ("count", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.hit_ratio": ("ratio", "higher"),
    "pool.simulations": ("count", "lower"),
    "pool.quarantined": ("count", "lower"),
    "service.bridge_wait_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: fresh set-ups whose median is ``setup_s``, per size (full, smoke).
SETUP_SAMPLES = (10, 3)
#: one program process may run this long before it is killed.
CHILD_TIMEOUT_S = 150.0

try:
    _PRCTL = ctypes.CDLL(None, use_errno=True).prctl
except (OSError, AttributeError):  # not Linux
    _PRCTL = None


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: the kernel kills the child if this process dies,
    # even by SIGKILL, so no server outlives its benchmark.
    _PRCTL(1, signal.SIGKILL)


@contextlib.contextmanager
def one_cpu():
    """Run this process and every child it starts on a single CPU.

    On a virtual machine a wake-up on another vCPU costs a hypervisor
    round trip whose latency follows the host's load: unpinned, the
    service's submit round trip measured 0.6-0.95 ms (that wake-up,
    mostly) and the stream's wall time swung 7-13 s between runs;
    pinned, 0.07 ms and 5.1-5.3 s.  The CLI workloads are single
    threaded and lose nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(previous)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def program_available() -> bool:
    """Whether the checkout holds the program this benchmark runs."""
    return (SRC / "repro" / "cli.py").is_file()


class Child:
    """One program process, reaped by a thread for exact end time and rusage."""

    def __init__(self, argv: list[str], cwd: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_CACHE_DIR"] = str(cwd / "cache")
        self.cwd = cwd
        self.ended: float | None = None
        self.rusage = None
        self._done = threading.Event()
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            self.started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
                preexec_fn=_die_with_parent if _PRCTL is not None else None,
            )
        threading.Thread(target=self._reap, daemon=True).start()

    def _reap(self) -> None:
        _, status, rusage = os.wait4(self.proc.pid, 0)
        self.ended = time.perf_counter()
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._done.set()

    @property
    def alive(self) -> bool:
        """True until the process has been reaped."""
        return not self._done.is_set()

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int | None:
        """Exit code, or None if the process had to be killed."""
        if self._done.wait(timeout):
            return self.proc.returncode
        self.kill()
        return None

    def kill(self) -> None:
        """Kill the process if it still runs, and wait until it has ended."""
        if self.alive:
            with contextlib.suppress(ProcessLookupError):
                self.proc.kill()
            self._done.wait()

    @property
    def wall_s(self) -> float:
        """Launch to exit."""
        return self.ended - self.started

    @property
    def rss_mb(self) -> float:
        """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
        return self.rusage.ru_maxrss / 1024.0

    def stdout(self) -> str:
        """Everything the process wrote to stdout."""
        return (self.cwd / "stdout.txt").read_text(errors="replace")

    def stderr_tail(self, n: int = 400) -> str:
        """The end of what the process wrote to stderr."""
        return (self.cwd / "stderr.txt").read_text(errors="replace")[-n:]


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.bench_tmp/``, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _program(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(TRACER), "spans.json", "--", "-j", "1"]
    return [sys.executable, "-m", "repro.cli", "-j", "1"]


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    rss_mb: float
    jobs: int
    latencies_ms: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    #: operations that failed (a failed check fails the repetition once).
    failed: int = 0
    digest: str = ""
    setup_s: float | None = None
    spans: dict | None = None


# -- CLI workloads -------------------------------------------------------------


def cli_setup_sample() -> float:
    """Wall time of a fresh interpreter importing ``repro.cli``."""
    with scratch_dir() as tmp:
        child = Child([sys.executable, "-c", "import repro.cli"], tmp)
        if child.wait() != 0:
            raise RuntimeError(f"import repro.cli failed: {child.stderr_tail()}")
        return child.wall_s


def cli_rep(workload: Workload, smoke: bool, traced: bool, reference: dict) -> Rep:
    """Run the workload's command once in a fresh directory."""
    with scratch_dir() as tmp:
        child = Child(_program(traced) + workload.args(smoke), tmp)
        code = child.wait()
        stdout = child.stdout()
        failures = [] if code == 0 else [f"exit code {code}: {child.stderr_tail()}"]
        if code == 0:
            failures += check_cli_output(workload, tmp, stdout, smoke, reference)
        rep = Rep(
            wall_s=child.wall_s,
            rss_mb=child.rss_mb,
            jobs=jobs_done(workload, tmp),
            latencies_ms=[child.wall_s * 1e3],
            attempted=1,
            failures=failures,
            failed=1 if failures else 0,
            digest=stdout_digest(stdout, str(tmp)),
        )
        if traced and code == 0:
            rep.spans = json.loads((tmp / "spans.json").read_text())
        return rep


# -- the service workload ----------------------------------------------------------


class LineClient:
    """One persistent JSON-line connection to ``repro-ear serve``."""

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def call(self, message: dict) -> dict:
        """Send one request line; return the decoded reply line."""
        self.sock.sendall(json.dumps(message, separators=(",", ":")).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("the service closed the connection")
        return json.loads(line)

    def close(self) -> None:
        """Close the connection."""
        self.reader.close()
        self.sock.close()


def _connect(child: Child, path: str, deadline_s: float = 30.0) -> LineClient:
    """Connect as soon as the server listens; fail if it dies first."""
    deadline = time.perf_counter() + deadline_s
    while True:
        try:
            return LineClient(path)
        except (FileNotFoundError, ConnectionRefusedError):
            if not child.alive or time.perf_counter() > deadline:
                raise RuntimeError(f"serve never listened: {child.stderr_tail()}")
            time.sleep(0.001)


def _http_get(path: str, target: str) -> str:
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        sock.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).decode().partition("\r\n\r\n")
    if not head.startswith("HTTP/1.1 200"):
        raise ConnectionError(f"GET {target}: {head.splitlines()[0] if head else 'no reply'}")
    return body


def _start_server(workload: Workload, smoke: bool, tmp: Path, traced: bool):
    """Launch ``serve``; return the process, a connection and set-up time."""
    child = Child(_program(traced) + workload.args(smoke), tmp)
    path = os.path.relpath(tmp / "ear.sock")
    try:
        client = _connect(child, path)
        reply = client.call({"op": "ping"})
        setup_s = time.perf_counter() - child.started
        if not reply.get("ok"):
            raise RuntimeError(f"ping refused: {reply}")
    except BaseException:
        child.kill()
        raise
    return child, client, path, setup_s


def service_setup_sample(workload: Workload, smoke: bool) -> float:
    """Launch to first ``ping`` reply of a fresh server, which then stops."""
    with scratch_dir() as tmp:
        child, client, _, setup_s = _start_server(workload, smoke, tmp, False)
        try:
            client.call({"op": "shutdown", "drain": True})
            if child.wait(30.0) != 0:
                raise RuntimeError(f"serve exited badly: {child.stderr_tail()}")
        finally:
            client.close()
            child.kill()
        return setup_s


def service_rep(
    workload: Workload, smoke: bool, seed: int, traced: bool, reference: dict
) -> Rep:
    """One closed-loop stream: submit, drain, scrape, shut down.

    The server is killed in ``finally`` whatever happens to the client.
    """
    submissions = service_submissions(seed, workload.n_submissions(smoke))
    with scratch_dir() as tmp:
        child, client, path, setup_s = _start_server(workload, smoke, tmp, traced)
        failures: list[str] = []
        latencies: list[float] = []
        rejected = 0
        try:
            start = time.perf_counter()
            for message in submissions:
                sent = time.perf_counter()
                reply = client.call(message)
                latencies.append((time.perf_counter() - sent) * 1e3)
                if not reply.get("ok"):
                    rejected += 1
            status = client.call({"op": "drain"})
            wall_s = time.perf_counter() - start
            row = status["clusters"]["default"]
            metrics_text = _http_get(path, "/metrics")
            client.call({"op": "shutdown", "drain": True})
            code = child.wait(60.0)
        finally:
            client.close()
            child.kill()
        n = len(submissions)
        lost = n - row["completed"]
        checks: list[str] = []
        expected = expected_energy_j(submissions, reference)
        if expected is None:
            checks.append("no reference energy for the submission mix")
        elif not abs(row["energy_j"] - expected) <= 1e-9 * abs(expected):
            checks.append(f"energy_j {row['energy_j']!r} != reference {expected!r}")
        checks += check_metrics_text(metrics_text)
        if code != 0:
            checks.append(f"serve exit code {code}: {child.stderr_tail()}")
        if rejected:
            failures.append(f"{rejected} submission(s) rejected")
        if lost:
            failures.append(f"{lost} job(s) not completed ({row['failed']} failed)")
        spans = None
        if traced and code == 0:
            spans = json.loads((tmp / "spans.json").read_text())
        return Rep(
            wall_s=wall_s,
            rss_mb=child.rss_mb,
            jobs=row["completed"],
            latencies_ms=latencies,
            attempted=n,
            failures=failures + checks,
            failed=min(n, rejected + lost + len(checks)),
            # the energy sum's last bits follow completion order, which
            # follows pump timing; it is checked to 1e-9 above instead.
            digest=str(row["completed"]),
            setup_s=setup_s,
            spans=spans,
        )


def record_reference() -> dict:
    """Expected outputs of this commit, for ``reference/reference.json``.

    CLI workloads: the stdout digest at both sizes.  service_stream: the
    energy of each (workload, seed) run of the mix, measured one job at
    a time, so the expected total of any seeded submission sequence is
    their sum.
    """
    reference: dict = {}
    for workload in WORKLOADS.values():
        if workload.is_service:
            continue
        for smoke in (False, True):
            with scratch_dir() as tmp:
                child = Child(_program(False) + workload.args(smoke), tmp)
                if child.wait() != 0:
                    raise RuntimeError(f"{workload.name}: {child.stderr_tail()}")
                reference.setdefault(workload.name, {})[
                    "smoke" if smoke else "full"
                ] = stdout_digest(child.stdout(), str(tmp))
    energies = {}
    with scratch_dir() as tmp:
        child, client, _, _ = _start_server(WORKLOADS["service_stream"], False, tmp, False)
        try:
            before = 0.0
            pairs = [(w, s) for w in SERVICE_MIX for s in SERVICE_SIM_SEEDS]
            for i, (name, sim_seed) in enumerate(pairs):
                reply = client.call(
                    {"op": "submit", "workload": name, "seed": sim_seed,
                     "scale": SERVICE_SCALE, "submit_s": i * SERVICE_GAP_S}
                )
                if not reply.get("ok"):
                    raise RuntimeError(f"submit refused: {reply}")
                energy = client.call({"op": "drain"})["clusters"]["default"]["energy_j"]
                energies[f"{name}:{sim_seed}"] = energy - before
                before = energy
            client.call({"op": "shutdown", "drain": True})
            child.wait(60.0)
        finally:
            client.close()
            child.kill()
    reference["service_stream"] = {"energy_j": energies}
    return reference


# -- one measured run -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _e2e_metrics(reps: list[Rep], setup: list[float]) -> dict[str, float]:
    latencies = [x for r in reps for x in r.latencies_ms]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "jobs_per_s": statistics.median(r.jobs / r.wall_s for r in reps),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics from a tracer span table."""
    spans = trace["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name, "self_s")
    node_iters = trace["counters"].get("engine.node_iters", 0)
    engine_s = span("engine.run", "total_s")
    hits = trace["counters"].get("cache.hits", 0)
    attempts = span("cache.get", "calls")
    main_s = span("cli.main", "total_s")
    out.update(
        {
            "engine.node_iters": node_iters,
            "engine.node_iters_per_s": node_iters / engine_s if engine_s else 0.0,
            "cache.attempts": attempts,
            "cache.hits": hits,
            "cache.hit_ratio": hits / attempts if attempts else 0.0,
            "pool.simulations": trace["pool"].get("simulations", 0),
            "pool.quarantined": trace["pool"].get("quarantined", 0),
            "service.bridge_wait_s": span("service.bridge", "total_s")
            - span("service.drain", "total_s"),
            "trace.coverage": 1.0 - span("cli.main", "self_s") / main_s if main_s else 0.0,
            "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        }
    )
    return out


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    reference: dict,
) -> dict:
    """One measured run of one workload; a JSON-ready result.

    Untraced repetitions run back to back until ``seconds`` have
    passed (at least one).  A plain run first takes ``setup_s`` from
    several fresh set-ups; a traced run instead ends with one traced
    repetition, which gives the per-layer metrics.
    """
    workload = WORKLOADS[name]
    started_at = time.time()

    def one(traced: bool) -> Rep:
        if workload.is_service:
            return service_rep(workload, smoke, seed, traced, reference)
        return cli_rep(workload, smoke, traced, reference)

    setup: list[float] = []
    if not trace:
        for _ in range(SETUP_SAMPLES[smoke]):
            setup.append(
                service_setup_sample(workload, smoke)
                if workload.is_service
                else cli_setup_sample()
            )
    reps: list[Rep] = []
    begin = time.perf_counter()
    while not reps or time.perf_counter() - begin < seconds:
        reps.append(one(False))
    traced_rep = one(True) if trace else None
    checked = reps + ([traced_rep] if traced_rep else [])

    failures = [f for r in checked for f in r.failures]
    failed = sum(r.failed for r in checked)
    if len({r.digest for r in checked}) > 1:
        failures.append("repetitions of the same inputs gave different outputs")
        failed += 1
    attempted = sum(r.attempted for r in checked)
    if trace:
        if traced_rep.spans is None:
            failures.append("the traced repetition wrote no span table")
            failed += 1
            spans = {"spans": {}, "counters": {}, "pool": {}, "missing": []}
        else:
            spans = traced_rep.spans
        values = layer_metrics(
            spans, traced_rep.wall_s, statistics.median(r.wall_s for r in reps)
        )
        units = LAYER_METRICS
    else:
        values = _e2e_metrics(reps, setup + [r.setup_s for r in reps if r.setup_s])
        units = E2E_METRICS
        spans = None
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "started_at": started_at,
        "repetitions": len(reps),
        "correct": not failures,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": failures,
        "samples": {
            "wall_s": [r.wall_s for r in reps],
            "setup_s": setup,
        },
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
        "spans": spans,
    }
