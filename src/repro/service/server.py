"""The persistent "EAR as a service" control tier.

One :class:`EarService` is the long-lived counterpart of a batch
``repro-ear cluster`` invocation: an asyncio server that accepts
streaming job submissions over a local unix socket (or TCP), routes
them to named :class:`ClusterWorker` instances — each multiplexing one
streaming :class:`~repro.cluster.scheduler.ClusterSimulation` — and
streams telemetry out incrementally instead of post-hoc.

Topology and flow::

    clients ──JSON lines──▶ EarService ──▶ ClusterWorker (per cluster)
    scraper ──HTTP GET  ──▶    │               │  pending deque (bounded)
                               │               ▼  sorted (submit_s, tag)
                               │           ClusterSimulation (streaming)
                               │               │  pool.run_many via
                               │               ▼  AsyncPoolBridge
                               │         ExperimentPool + RunCache
                               ▼
               EventRing + MetricsAggregator (bounded)

Backpressure is explicit at both ends: each worker's pending deque is
bounded (``max_pending``; excess submissions are *rejected*, not
buffered) and blocking simulation work dispatches through the
:class:`~repro.experiments.parallel.AsyncPoolBridge`'s in-flight cap.
Memory stays bounded regardless of how many jobs stream through:
finished outcomes are harvested into aggregates after every pump
cycle, telemetry events drain into a fixed-capacity ring, and the
run cache takes an LRU bound.

SIGTERM/SIGINT request a *graceful drain*: ingress closes, every
worker finishes its pending and in-flight jobs, EARDBD residue is
flushed, the campaign journal gets its trailer, and the process exits
cleanly — an interrupted service resumes from the journal (and the
run cache's disk layer) without re-simulating finished work.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import signal
from collections import deque
from dataclasses import dataclass, replace

from ..cluster.eardbd import EardbdConfig
from ..cluster.scheduler import ClusterConfig, ClusterSimulation
from ..cluster.traces import TraceJob, trace_workload_mix
from ..ear.accounting import AccountingDB
from ..ear.eargm import EargmConfig
from ..errors import ConfigError, ExperimentError
from ..experiments.journal import CampaignJournal
from ..experiments.parallel import AsyncPoolBridge, default_pool
from ..experiments.runner import standard_configs
from ..telemetry.stream import EventRing, MetricsAggregator
from ..workloads import Workload, paper_workloads
from .protocol import PROTOCOL_VERSION, JobSpec, decode, encode, error, int_arg, ok

__all__ = ["ServiceConfig", "ClusterWorker", "EarService", "service_workloads"]


def service_workloads() -> dict[str, Workload]:
    """The workload registry streamed submissions resolve against.

    The synthetic campaign mix (what batch traces draw from) plus the
    paper's kernels and applications, keyed by lower-cased name.
    """
    registry = {wl.name.lower(): wl for wl, _ in trace_workload_mix()}
    for wl in paper_workloads():
        registry.setdefault(wl.name.lower(), wl)
    return registry


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one ``repro-ear serve`` instance needs to know."""

    #: unix-socket path (preferred transport); None disables it.
    socket_path: str | None = None
    #: TCP listener (for environments without unix sockets); None disables.
    host: str = "127.0.0.1"
    port: int | None = None
    #: service instance name (journal identity, status banner).
    name: str = "default"
    #: defaults for auto-created clusters.
    n_nodes: int = 8
    policy: str = "me_eufs"
    budget_mj: float | None = None
    horizon_s: float = 4500.0
    flush_interval_s: float = 30.0
    #: per-cluster ingress bound: submissions beyond this many pending
    #: jobs are rejected with a ``backpressure`` error.
    max_pending: int = 1024
    #: concurrent blocking dispatches through the pool bridge.
    max_inflight: int = 2
    #: process pump cycles eagerly (False = only on explicit drain,
    #: which guarantees one globally sorted batch — the mode the
    #: batch-equivalence tests use).
    eager: bool = True
    #: bounded telemetry buffers.
    events_ring: int = 4096
    history_limit: int = 256
    #: LRU bound applied to the pool's run cache (None = unbounded).
    max_cache_entries: int | None = 4096
    #: write-ahead journal (resume support); fsync per record.
    journal: bool = True
    journal_dir: str | None = None
    journal_fsync: bool = True
    resume: bool = False

    def __post_init__(self) -> None:
        if self.socket_path is None and self.port is None:
            raise ConfigError("serve needs a unix socket path or a TCP port")
        if self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        if self.n_nodes < 1:
            raise ConfigError("a cluster needs at least one node")

    def ear_config_for(self, policy: str):
        """Resolve a policy name to an EarConfig (None = monitoring)."""
        configs = standard_configs()
        if policy not in configs:
            raise ConfigError(
                f"unknown policy {policy!r}; available: {sorted(configs)}"
            )
        return configs[policy]


@dataclass
class _Pending:
    """One admitted-but-not-yet-simulated submission."""

    submit_s: float
    tag: int
    order: int
    workload: Workload
    seed: int
    est_time_s: float


class ClusterWorker:
    """One named cluster: a streaming simulation plus its pump task.

    All simulation mutation happens on the single pump task (sorted
    batch admission, event-loop drain via the bridge, harvest), so a
    worker is free of data races by construction; the server only
    appends to the bounded pending deque and reads counters.  Job
    totals are read from the simulation; the worker counts only its own
    admission decisions.
    """

    def __init__(
        self,
        name: str,
        policy: str,
        service_config: ServiceConfig,
        *,
        pool,
        bridge: AsyncPoolBridge,
        ring: EventRing,
        registry: dict[str, Workload],
    ) -> None:
        self.name = name
        self.policy = policy
        self.service_config = service_config
        self.registry = registry
        self.bridge = bridge
        cluster_config = ClusterConfig(
            n_nodes=service_config.n_nodes,
            ear_config=service_config.ear_config_for(policy),
            eargm=(
                EargmConfig(
                    budget_j=service_config.budget_mj * 1e6,
                    horizon_s=service_config.horizon_s,
                )
                if service_config.budget_mj is not None
                else None
            ),
            eardbd=EardbdConfig(flush_interval_s=service_config.flush_interval_s),
            telemetry=True,
        )
        self.sim = ClusterSimulation((), cluster_config, pool=pool, accounting=AccountingDB())
        self.ring = ring
        self.submitted = 0
        self.rejected = 0
        self.recent: deque = deque(maxlen=service_config.history_limit)
        self.pending: deque[_Pending] = deque()
        self._order = 0
        self._next_index = 0
        self._wakeup = asyncio.Event()
        self._cond = asyncio.Condition()
        self._busy = False
        self._closing = False
        self._task: asyncio.Task | None = None

    # -- ingress (server coroutine side) --------------------------------------

    def submit(self, spec: JobSpec) -> dict:
        """Enqueue one spec; bounded — rejects instead of buffering."""
        if self._closing:
            return error("draining", f"cluster {self.name!r} is shutting down")
        if len(self.pending) >= self.service_config.max_pending:
            self.rejected += 1
            return error(
                "backpressure",
                f"cluster {self.name!r} has {len(self.pending)} pending "
                f"jobs (max {self.service_config.max_pending}); retry later",
                pending=len(self.pending),
            )
        workload = self.registry.get(spec.workload.lower())
        if workload is None:
            return error(
                "unknown_workload",
                f"unknown workload {spec.workload!r}",
                available=sorted(self.registry),
            )
        if workload.n_nodes > self.service_config.n_nodes:
            return error(
                "too_wide",
                f"workload {spec.workload!r} needs {workload.n_nodes} nodes; "
                f"cluster {self.name!r} has {self.service_config.n_nodes}",
            )
        if spec.scale != 1.0:
            workload = workload.scaled_iterations(spec.scale)
        est_time_s = workload.total_ref_time_s * spec.est_margin
        if not math.isfinite(est_time_s):
            return error("bad_request", f"est_margin {spec.est_margin} overflows the walltime")
        submit_s = (
            spec.submit_s if spec.submit_s is not None else self.sim.clock.now
        )
        self._order += 1
        self.pending.append(
            _Pending(
                submit_s=submit_s,
                tag=spec.tag if spec.tag is not None else self._order,
                order=self._order,
                workload=workload,
                seed=spec.seed,
                est_time_s=est_time_s,
            )
        )
        self.submitted += 1
        if self.service_config.eager:
            self._wakeup.set()
        return ok(
            cluster=self.name,
            pending=len(self.pending),
            submit_s=submit_s,
        )

    # -- the pump (single mutating task) --------------------------------------

    def start(self) -> None:
        """Spawn the pump task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._pump(), name=f"pump:{self.name}"
            )

    async def _pump(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self.pending:
                self._busy = True
                batch = list(self.pending)
                self.pending.clear()
                # sorted admission: concurrent clients' interleavings
                # all collapse onto the same (submit_s, tag) order.
                batch.sort(key=lambda p: (p.submit_s, p.tag, p.order))
                for item in batch:
                    job = TraceJob(
                        index=self._next_index,
                        submit_s=item.submit_s,
                        workload=item.workload,
                        seed=item.seed,
                        est_time_s=item.est_time_s,
                    )
                    self._next_index += 1
                    self.sim.submit_job(job)
                await self.bridge.call(self.sim.drain_events)
                self._harvest()
            self._busy = False
            async with self._cond:
                self._cond.notify_all()
            if self._closing and not self.pending:
                return

    def _harvest(self) -> None:
        """Fold finished work into bounded state after a pump cycle."""
        self.recent.extend(self.sim.harvest_outcomes())
        self.recent.extend(self.sim.harvest_failures())
        self.ring.extend(self.sim.drain_telemetry_events())

    async def drain(self) -> None:
        """Wait until everything submitted so far has simulated."""
        self._wakeup.set()
        async with self._cond:
            await self._cond.wait_for(lambda: not self.pending and not self._busy)

    async def close(self) -> None:
        """Graceful shutdown: drain in-flight work, stop the pump."""
        self._closing = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None

    def status(self) -> dict:
        """One cluster's row of the service status payload."""
        sim = self.sim
        row = {
            "policy": self.policy,
            "submitted": self.submitted,
            "completed": sim.jobs_completed,
            "failed": sim.jobs_failed,
            "rejected": self.rejected,
            "pending": len(self.pending),
            "queued": sim.n_queued,
            "running": sim.n_running,
            "energy_j": sim.total_energy_j,
            "clock_s": sim.clock.now,
        }
        if sim.eargm is not None:
            row["eargm"] = {
                "level": sim.eargm.level().name,
                "consumed_j": sim.eargm.consumed_j,
                "horizon_consumed_j": sim.eargm.horizon_consumed_j,
                "horizons_completed": sim.eargm.horizons_completed,
                "budget_j": sim.eargm.config.budget_j,
            }
        return row


class EarService:
    """The asyncio server multiplexing cluster workers.

    Use :meth:`serve_forever` from a CLI entry point (installs signal
    handlers), or :meth:`start`/:meth:`shutdown` directly from tests
    and embedding code.
    """

    def __init__(self, config: ServiceConfig, *, pool=None) -> None:
        self.config = config
        self.pool = pool if pool is not None else default_pool()
        if (
            config.max_cache_entries is not None
            and getattr(self.pool, "cache", None) is not None
        ):
            self.pool.cache.max_memory_entries = config.max_cache_entries
        self.bridge = AsyncPoolBridge(max_inflight=config.max_inflight)
        self.registry = service_workloads()
        self.ring = EventRing(config.events_ring)
        self.metrics = MetricsAggregator()
        self.workers: dict[str, ClusterWorker] = {}
        self.journal: CampaignJournal | None = None
        self.resumed_runs = 0
        self._servers: list[asyncio.base_events.Server] = []
        self._accepting = False
        self._shutdown_requested: asyncio.Event | None = None
        self._stopped = asyncio.Event()
        self._drain_on_shutdown = True

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Open the journal and the listeners; begin accepting (idempotent)."""
        if self._shutdown_requested is not None:
            return
        if self.config.journal:
            self.journal = CampaignJournal.for_campaign(
                f"service-{self.config.name}",
                directory=self.config.journal_dir,
                resume=self.config.resume,
                meta={"service": self.config.name, "protocol": PROTOCOL_VERSION},
            )
            self.journal.fsync = self.config.journal_fsync
            if self.config.resume:
                self.resumed_runs = len(self.journal.replay().completed)
            self.pool.journal = self.journal
        if self.config.socket_path is not None:
            path = self.config.socket_path
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            self._servers.append(
                await asyncio.start_unix_server(self._handle_connection, path=path)
            )
        if self.config.port is not None:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection, host=self.config.host,
                    port=self.config.port,
                )
            )
        self._shutdown_requested = asyncio.Event()
        self._accepting = True

    async def serve_forever(self) -> int:
        """Run until a shutdown request (signal or ``shutdown`` op)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, self.request_shutdown)
        try:
            await self._shutdown_requested.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.remove_signal_handler(sig)
            await self._finish(drain=self._drain_on_shutdown)
        return 0

    def request_shutdown(self, *, drain: bool = True) -> None:
        """Ask the serve loop to stop (signal-handler safe)."""
        self._accepting = False
        self._drain_on_shutdown = drain
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop listeners, drain workers, close the journal (tests)."""
        self.request_shutdown(drain=drain)
        await self._finish(drain=drain)

    async def _finish(self, *, drain: bool) -> None:
        if self._stopped.is_set():
            return
        self._accepting = False
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if drain:
            for worker in self.workers.values():
                await worker.close()
        else:
            for worker in self.workers.values():
                worker._closing = True
                if worker._task is not None:
                    worker._task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await worker._task
        if self.journal is not None:
            if drain:
                self.journal.finish(
                    clusters=len(self.workers),
                    completed=sum(w.sim.jobs_completed for w in self.workers.values()),
                    failed=sum(w.sim.jobs_failed for w in self.workers.values()),
                )
            self.journal.close()
            if self.pool.journal is self.journal:
                self.pool.journal = None
        if self.config.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
        self._stopped.set()

    # -- cluster routing ------------------------------------------------------

    def _worker_for(self, spec: JobSpec) -> ClusterWorker | dict:
        worker = self.workers.get(spec.cluster)
        if worker is None:
            policy = spec.policy if spec.policy is not None else self.config.policy
            try:
                worker = ClusterWorker(
                    spec.cluster,
                    policy,
                    self.config,
                    pool=self.pool,
                    bridge=self.bridge,
                    ring=self.ring,
                    registry=self.registry,
                )
            except ConfigError as err:
                return error("bad_cluster", str(err))
            worker.start()
            self.workers[spec.cluster] = worker
        elif spec.policy is not None and spec.policy != worker.policy:
            return error(
                "policy_mismatch",
                f"cluster {spec.cluster!r} runs policy {worker.policy!r}; "
                f"submit without a policy or to a fresh cluster",
            )
        return worker

    # -- request handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(b"GET ") or first.startswith(b"HEAD "):
                await self._handle_http(first, reader, writer)
                return
            line: bytes | None = first
            while line:
                response = await self._dispatch_line(line)
                writer.write(encode(response))
                await writer.drain()
                if response.get("_close"):
                    break
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = decode(line)
        except ConfigError as err:
            return error("bad_request", str(err))
        op = request.pop("op", None)
        try:
            if op == "ping":
                return ok(
                    service=self.config.name,
                    protocol=PROTOCOL_VERSION,
                    accepting=self._accepting,
                )
            if op == "submit":
                return await self._op_submit(request)
            if op == "status":
                return ok(**self.status_payload())
            if op == "tail":
                n = int_arg(request, "n", 100)
                return ok(events=self.ring.tail(n), dropped=self.ring.dropped)
            if op == "metrics":
                return ok(text=self.render_metrics())
            if op == "drain":
                for worker in list(self.workers.values()):
                    await worker.drain()
                return ok(**self.status_payload())
            if op == "shutdown":
                self.request_shutdown(drain=bool(request.get("drain", True)))
                return {**ok(stopping=True), "_close": True}
            return error(
                "unknown_op", f"unknown op {op!r}",
            )
        except (ConfigError, ExperimentError) as err:
            return error("bad_request", str(err))

    async def _op_submit(self, request: dict) -> dict:
        if not self._accepting:
            return error("draining", "the service is shutting down")
        count = int_arg(request, "count", 1)
        if count < 1:
            return error("bad_request", "count must be >= 1")
        spec = JobSpec.from_payload(request)
        worker = self._worker_for(spec)
        if isinstance(worker, dict):  # routing error
            return worker
        accepted = 0
        last: dict = error("bad_request", "nothing submitted")
        for i in range(count):
            expanded = (
                replace(spec, seed=spec.seed + i, tag=None if spec.tag is None else spec.tag + i)
                if i
                else spec
            )
            last = worker.submit(expanded)
            if not last["ok"]:
                break
            accepted += 1
        if accepted == 0:
            return last
        return ok(
            accepted=accepted,
            cluster=spec.cluster,
            pending=len(worker.pending),
        )

    # -- HTTP endpoints -------------------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # drain headers; the endpoints are all GET + no body
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        try:
            target = request_line.split()[1].decode()
        except (IndexError, UnicodeDecodeError):
            writer.write(_http_response(400, "text/plain", b"bad request"))
            await writer.drain()
            return
        path, _, query = target.partition("?")
        if path == "/metrics":
            body = self.render_metrics().encode()
            writer.write(
                _http_response(200, "text/plain; version=0.0.4", body)
            )
        elif path == "/events":
            n = 100
            for part in query.split("&"):
                if part.startswith("n="):
                    with contextlib.suppress(ValueError):
                        n = int(part[2:])
            body = ("".join(line + "\n" for line in self.ring.tail(n))).encode()
            writer.write(_http_response(200, "application/x-ndjson", body))
        elif path == "/status":
            body = json.dumps(self.status_payload(), sort_keys=True).encode()
            writer.write(_http_response(200, "application/json", body))
        else:
            writer.write(_http_response(404, "text/plain", b"not found"))
        await writer.drain()

    # -- observability --------------------------------------------------------

    def status_payload(self) -> dict:
        """The ``status`` op / ``/status`` endpoint body."""
        pool_stats = self.pool.stats
        cache = getattr(self.pool, "cache", None)
        payload = {
            "service": self.config.name,
            "protocol": PROTOCOL_VERSION,
            "accepting": self._accepting,
            "resumed_runs": self.resumed_runs,
            "clusters": {
                name: worker.status() for name, worker in sorted(self.workers.items())
            },
            "events": {
                "buffered": len(self.ring),
                "total": self.ring.total_seen,
                "dropped": self.ring.dropped,
            },
            "pool": {
                "simulations": pool_stats.simulations,
                "batches": pool_stats.batches,
                "inflight": self.bridge.inflight,
                "peak_inflight": self.bridge.peak_inflight,
            },
        }
        if cache is not None:
            payload["cache"] = {
                "entries": len(cache),
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "evictions": cache.stats.memory_evictions,
            }
        return payload

    def render_metrics(self) -> str:
        """The ``/metrics`` endpoint body, rendered from :meth:`status_payload`."""
        status = self.status_payload()
        for name, row in status["clusters"].items():
            telemetry = self.workers[name].sim.telemetry
            if telemetry.enabled:
                self.metrics.update_source(f"cluster:{name}", [telemetry.snapshot()])
            self._export(row, _CLUSTER_METRICS, labels=f'cluster="{name}"')
        self._export(status, _SERVICE_METRICS)
        return self.metrics.render()

    def _export(self, payload: dict, table: dict, *, labels: str = "") -> None:
        for path, (kind, metric) in table.items():
            section, _, key = path.rpartition(".")
            values = payload.get(section) if section else payload
            if values is not None:
                getattr(self.metrics, f"set_{kind}")(metric, values[key], labels=labels)


#: status-payload key -> (metric kind, metric name).  Cluster keys are
#: relative to the cluster's row and carry a ``cluster`` label; a key
#: whose section is absent (no EARGM, no run cache) exports nothing.
_CLUSTER_METRICS = {
    "submitted": ("counter", "service.jobs_submitted"),
    "completed": ("counter", "service.jobs_completed"),
    "failed": ("counter", "service.jobs_failed"),
    "rejected": ("counter", "service.jobs_rejected"),
    "energy_j": ("counter", "service.energy_joules"),
    "pending": ("gauge", "service.jobs_pending"),
    "running": ("gauge", "service.jobs_running"),
    "clock_s": ("gauge", "service.sim_clock_seconds"),
    "eargm.horizons_completed": ("gauge", "service.eargm_horizons_completed"),
    "eargm.horizon_consumed_j": ("gauge", "service.eargm_horizon_consumed_joules"),
}
_SERVICE_METRICS = {
    "events.total": ("counter", "service.events_total"),
    "events.buffered": ("gauge", "service.events_buffered"),
    "cache.hits": ("counter", "service.cache_hits"),
    "cache.misses": ("counter", "service.cache_misses"),
    "cache.entries": ("gauge", "service.cache_entries"),
}


def _http_response(status: int, content_type: str, body: bytes) -> bytes:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body
