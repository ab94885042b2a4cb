"""Per-layer wall-clock spans for one ``repro-ear`` command, taken from outside.

Run as a script by the benchmark's traced run::

    python bench/tracer.py SPANS.json -- <repro-ear arguments>

The program is not modified.  This script imports it, replaces the
public callables listed in :data:`SPANS` with timing wrappers, runs
``repro.cli.main`` and writes the span table to ``SPANS.json`` when the
command returns.  A target that no longer exists is reported in
``missing`` and leaves its span at zero; it never fails the run.

Self time is a span's duration minus the time its child spans cover.
Each thread keeps its own span stack, so spans opened on the service's
bridge threads nest among themselves and never inside a span of the
event-loop thread.  A coroutine span (``service.bridge``) is not put on
any stack, because other tasks run on its thread while it awaits: its
self time is its whole duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

#: span name -> the callables it wraps, as ``module:Class.attr`` or
#: ``module:function``.  ``Class+.attr`` also wraps the override in
#: every subclass that defines one.
SPANS: dict[str, tuple[str, ...]] = {
    "cli.main": ("repro.cli:main",),
    "pool.run_many": ("repro.experiments.parallel:ExperimentPool.run_many",),
    "request.key": ("repro.experiments.parallel:RunRequest.key",),
    "cache.get": ("repro.experiments.parallel:RunCache.get",),
    "cache.put": ("repro.experiments.parallel:RunCache.put",),
    "journal.write": (
        "repro.experiments.journal:CampaignJournal.submitted",
        "repro.experiments.journal:CampaignJournal.completed",
        "repro.experiments.journal:CampaignJournal.failed",
    ),
    "engine.init": ("repro.sim.engine:SimulationEngine.__init__",),
    "engine.run": ("repro.sim.engine:SimulationEngine.run",),
    "phase.iteration": ("repro.workloads.phase:PhaseProfile.execute_iteration",),
    "node.advance": ("repro.hw.node:Node.advance",),
    "earl.iteration": ("repro.ear.earl:Earl.on_iteration",),
    "dynais.observe": ("repro.ear.dynais:Dynais.observe",),
    "policy.decide": (
        "repro.ear.policies:PolicyPlugin+.node_policy",
        "repro.ear.policies:PolicyPlugin+.validate",
    ),
    "eard.apply": ("repro.ear.eard:Eard.apply_freqs",),
    "learning.measure": ("repro.learning.campaign:LearningCampaign.measure",),
    "learning.fit": ("repro.learning.campaign:LearningCampaign.fit",),
    "learning.validate": ("repro.learning.campaign:LearningCampaign.validate",),
    "scheduler.step": ("repro.cluster.scheduler:ClusterSimulation.step",),
    "scheduler.fit": (
        "repro.cluster.scheduler:_FreeProfile.earliest_fit",
        "repro.cluster.scheduler:_FreeProfile.reserve",
    ),
    "market.call": (
        "repro.cluster.market:PowerMarket.admit",
        "repro.cluster.market:PowerMarket.release",
        "repro.cluster.market:PowerMarket.tick",
        "repro.cluster.market:PowerMarket.observe",
    ),
    "eardbd.call": (
        "repro.cluster.eardbd:Eardbd.submit",
        "repro.cluster.eardbd:Eardbd.flush",
    ),
    "eargm.report": ("repro.ear.eargm:Eargm.report",),
    "telemetry.event": ("repro.telemetry.recorder:EventRecorder.event",),
    "telemetry.ring": ("repro.telemetry.stream:EventRing.extend",),
    "service.submit": ("repro.service.server:ClusterWorker.submit",),
    "service.bridge": ("repro.experiments.parallel:AsyncPoolBridge.call",),
    "service.drain": ("repro.cluster.scheduler:ClusterSimulation.drain_events",),
    "service.harvest": (
        "repro.cluster.scheduler:ClusterSimulation.harvest_outcomes",
        "repro.cluster.scheduler:ClusterSimulation.harvest_failures",
        "repro.cluster.scheduler:ClusterSimulation.drain_telemetry_events",
    ),
    "protocol.codec": (
        "repro.service.protocol:encode",
        "repro.service.protocol:decode",
        "repro.service.protocol:JobSpec.from_payload",
    ),
    "report.render": (
        "repro.cluster.report:render_cluster_report",
        "repro.experiments.report:format_table",
    ),
}


class SpanRecorder:
    """Calls, total time and self time per span name, across threads.

    Every thread accumulates into its own table, so the hot path takes
    no lock; :meth:`snapshot` merges the tables once the work is done.
    Total time counts only the outermost span of a name on a thread, so
    a span nested inside itself (an override calling ``super()``) is
    not counted twice.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack of [name, start, child_s]; name -> [calls, total_s,
            # self_s]; counter -> value; name -> open depth.
            state = ([], {}, {}, {})
            self._local.state = state
            with self._lock:
                self._threads.append((state[1], state[2]))
        return state

    def enter(self, name: str) -> None:
        """Open a span on the calling thread."""
        stack, _, _, depth = self._thread_state()
        depth[name] = depth.get(name, 0) + 1
        stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span of the calling thread."""
        end = self.clock()
        stack, table, _, depth = self._thread_state()
        name, start, child_s = stack.pop()
        duration = end - start
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += duration - child_s
        depth[name] -= 1
        if depth[name] == 0:
            row[1] += duration
        if stack:
            stack[-1][2] += duration

    def add_detached(self, name: str, duration: float) -> None:
        """Record a span kept off the stack (a coroutine that awaits)."""
        row = self._thread_state()[1].setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration

    def count(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to a named counter."""
        counters = self._thread_state()[2]
        counters[counter] = counters.get(counter, 0) + n

    def snapshot(self) -> tuple[dict[str, dict], dict[str, int]]:
        """Merged ``{name: {calls, total_s, self_s}}`` and counters."""
        spans: dict[str, dict] = {}
        counters: dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for table, thread_counters in threads:
            for name, (calls, total, self_s) in list(table.items()):
                row = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
            for counter, value in list(thread_counters.items()):
                counters[counter] = counters.get(counter, 0) + value
        return spans, counters


def _after_engine_run(recorder: SpanRecorder, args, _result) -> None:
    workload = args[0].workload
    iterations = sum(n for _, n in workload.phases)
    recorder.count("engine.node_iters", iterations * workload.n_nodes)


def _after_cache_get(recorder: SpanRecorder, _args, result) -> None:
    if result is not None:
        recorder.count("cache.hits")


#: derived counters read from a wrapped call's arguments and result.
AFTER = {"engine.run": _after_engine_run, "cache.get": _after_cache_get}


def traced(recorder: SpanRecorder, name: str, fn, after=None):
    """``fn`` wrapped in a span called ``name``."""
    clock = recorder.clock
    if inspect.iscoroutinefunction(fn):

        async def wrapper(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.add_detached(name, clock() - start)

    else:

        def wrapper(*args, **kwargs):
            recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if after is not None:
                try:
                    after(recorder, args, result)
                except (AttributeError, TypeError, ValueError):
                    recorder.count(f"missing:{name}")
            return result

    return functools.wraps(fn)(wrapper)


def _wrap_attribute(recorder, name, cls, attr, after) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(traced(recorder, name, raw.__func__, after)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(traced(recorder, name, raw.__func__, after)))
    else:
        setattr(cls, attr, traced(recorder, name, raw, after))


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _patch(recorder: SpanRecorder, name: str, target: str) -> None:
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner, _, attr = qualname.rpartition(".")
    after = AFTER.get(name)
    if not owner:
        original = getattr(module, attr)
        wrapper = traced(recorder, name, original, after)
        # rebind every module-level reference, including re-exports
        # such as ``from .report import format_table``.
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if (
                namespace is not None
                and getattr(mod, "__name__", "").startswith("repro")
                and namespace.get(attr) is original
            ):
                setattr(mod, attr, wrapper)
        return
    if owner.endswith("+"):
        base = getattr(module, owner[:-1])
        classes = [c for c in _subclasses(base) if attr in c.__dict__]
        if not classes:
            raise AttributeError(target)
        for cls in classes:
            _wrap_attribute(recorder, name, cls, attr, after)
        return
    _wrap_attribute(recorder, name, getattr(module, owner), attr, after)


def install(recorder: SpanRecorder, spans=SPANS) -> list[str]:
    """Wrap every target; return the targets that could not be found."""
    missing = []
    for name, targets in spans.items():
        for target in targets:
            try:
                _patch(recorder, name, target)
            except (ImportError, AttributeError, KeyError):
                missing.append(target)
    return missing


def main(argv: list[str]) -> int:
    """Trace one ``repro-ear`` command and write the span table."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <repro-ear arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import repro.cli  # noqa: F401  (loads the program before patching)

    recorder = SpanRecorder()
    missing = install(recorder)
    code = 1
    try:
        code = sys.modules["repro.cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        spans, counters = recorder.snapshot()
        missing += sorted(c.split(":", 1)[1] for c in counters if c.startswith("missing:"))
        pool = {}
        try:
            from repro.experiments.parallel import default_pool

            stats = default_pool().stats
            pool = {"simulations": stats.simulations, "quarantined": stats.quarantined}
        except (ImportError, AttributeError):
            missing.append("repro.experiments.parallel:default_pool().stats")
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "spans": spans,
                    "counters": {k: v for k, v in counters.items() if ":" not in k},
                    "pool": pool,
                    "missing": missing,
                },
                fh,
                indent=1,
                sort_keys=True,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
