"""Service-tier lifecycle: sockets, equivalence, scrape, SIGTERM drain."""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.cluster.scheduler import ClusterConfig, ClusterSimulation
from repro.cluster.traces import TraceJob
from repro.experiments.parallel import ExperimentPool, RunCache
from repro.service import (
    EarService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    service_workloads,
)
from repro.telemetry import validate_exposition

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def fresh_pool():
    return ExperimentPool(jobs=1, cache=RunCache())


def run_service(coro):
    """Run one async service scenario to completion."""
    return asyncio.run(coro)


def make_config(tmp_path, **kw):
    kw.setdefault("socket_path", str(tmp_path / "ear.sock"))
    kw.setdefault("journal", False)
    return ServiceConfig(**kw)


class TestLifecycle:
    def test_ping_submit_drain_status(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none")
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            ping = await asyncio.to_thread(client.ping)
            assert ping["protocol"] == 1
            receipt = await asyncio.to_thread(
                client.submit, "synt.cpu.1n", scale=0.2, count=3, seed=2
            )
            assert receipt["accepted"] == 3
            status = await asyncio.to_thread(client.drain)
            row = status["clusters"]["default"]
            assert row["completed"] == 3
            assert row["failed"] == 0
            assert row["pending"] == 0
            tail = await asyncio.to_thread(client.tail, 5)
            assert tail and all(json.loads(line) for line in tail)
            await service.shutdown()

        run_service(scenario())

    def test_unknown_workload_and_op_are_rejected(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none")
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            with pytest.raises(ServiceError, match="unknown_workload"):
                await asyncio.to_thread(client.submit, "no.such.workload")
            with pytest.raises(ServiceError, match="unknown_op"):
                await asyncio.to_thread(client.request, "frobnicate")
            await service.shutdown()

        run_service(scenario())

    def test_backpressure_rejects_over_bound(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none", max_pending=4, eager=False)
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            for _ in range(4):
                await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2)
            with pytest.raises(ServiceError, match="backpressure"):
                await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2)
            status = await asyncio.to_thread(client.status)
            assert status["clusters"]["default"]["rejected"] == 1
            await service.shutdown()

        run_service(scenario())

    def test_policy_mismatch_is_rejected(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none")
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2)
            with pytest.raises(ServiceError, match="policy_mismatch"):
                await asyncio.to_thread(
                    client.submit, "synt.cpu.1n", scale=0.2, policy="me"
                )
            await service.shutdown()

        run_service(scenario())

    def test_shutdown_while_pending_drains_first(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none", eager=False)
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2, count=3)
            await service.shutdown()  # graceful: drains the pending jobs
            worker = service.workers["default"]
            assert worker.sim.jobs_completed == 3
            assert len(worker.pending) == 0

        run_service(scenario())


#: requests whose values are malformed; each must be answered with a
#: ``bad_request`` envelope on a connection the server keeps serving.
MALFORMED = {
    "seed-abc": ("submit", {"workload": "synt.cpu.1n", "seed": "abc"}),
    "seed-null": ("submit", {"workload": "synt.cpu.1n", "seed": None}),
    "count-x": ("submit", {"workload": "synt.cpu.1n", "count": "x"}),
    "submit_s-inf": ("submit", {"workload": "synt.cpu.1n", "submit_s": float("inf")}),
    "scale-nan": ("submit", {"workload": "synt.cpu.1n", "scale": float("nan")}),
    "scale-overflow": ("submit", {"workload": "synt.cpu.1n", "scale": 1e308}),
    "est_margin-overflow": ("submit", {"workload": "synt.cpu.1n", "est_margin": 1e308}),
    "tail-n-x": ("tail", {"n": "x"}),
    "shutdown-drain-str": ("shutdown", {"drain": "false"}),
    "shutdown-drain-int": ("shutdown", {"drain": 0}),
    "shutdown-drain-null": ("shutdown", {"drain": None}),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("op, payload", MALFORMED.values(), ids=MALFORMED.keys())
    def test_bad_value_gets_bad_request(self, op, payload, tmp_path):
        async def scenario():
            # eager=False: nothing admitted is ever simulated, so a
            # wrongly accepted submit cannot start an endless loop.
            config = make_config(tmp_path, policy="none", eager=False)
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            try:
                with pytest.raises(ServiceError, match="bad_request"):
                    await asyncio.to_thread(client.request, op, **payload)
                ping = await asyncio.to_thread(client.ping)
                status = await asyncio.to_thread(client.status)
            finally:
                await service.shutdown(drain=False)
            assert ping["accepting"] is True
            assert all(row["submitted"] == 0 for row in status["clusters"].values())

        run_service(scenario())

    def test_shutdown_honours_a_boolean_drain(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none", eager=False)
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            try:
                reply = await asyncio.to_thread(client.shutdown, drain=False)
                drain = service._drain_on_shutdown
            finally:
                await service.shutdown(drain=False)
            assert reply["stopping"] is True
            assert drain is False

        run_service(scenario())


class TestBatchEquivalence:
    """Streamed multi-client submission reproduces the batch campaign."""

    def _specs(self, n=8):
        names = ["synt.cpu.1n", "synt.mixed.1n", "synt.mem.1n"]
        return [
            dict(
                workload=names[i % len(names)],
                seed=10 + i,
                scale=0.2,
                submit_s=i * 8.0,
                tag=i,
            )
            for i in range(n)
        ]

    def _batch_report(self, specs):
        registry = service_workloads()
        trace = []
        for i, spec in enumerate(sorted(specs, key=lambda s: (s["submit_s"], s["tag"]))):
            wl = registry[spec["workload"]].scaled_iterations(spec["scale"])
            trace.append(
                TraceJob(
                    index=i,
                    submit_s=spec["submit_s"],
                    workload=wl,
                    seed=spec["seed"],
                    est_time_s=wl.total_ref_time_s * 1.3,
                )
            )
        config = ClusterConfig(n_nodes=8, ear_config=None, telemetry=True)
        return ClusterSimulation(tuple(trace), config, pool=fresh_pool()).run()

    def _serve_specs(self, tmp_path, specs, partitions, seed):
        """Submit specs over the socket from several concurrent clients."""

        async def scenario():
            config = make_config(
                tmp_path, policy="none", eager=False, history_limit=64
            )
            service = EarService(config, pool=fresh_pool())
            await service.start()

            shuffled = list(specs)
            random.Random(seed).shuffle(shuffled)
            shares = [shuffled[i::partitions] for i in range(partitions)]

            def submit_all(share):
                client = ServiceClient(config.socket_path)
                for spec in share:
                    client.submit(**spec)

            await asyncio.gather(
                *(asyncio.to_thread(submit_all, share) for share in shares)
            )
            await asyncio.to_thread(ServiceClient(config.socket_path).drain)
            outcomes = sorted(
                service.workers["default"].recent, key=lambda o: o.index
            )
            await service.shutdown()
            return outcomes

        return run_service(scenario())

    def test_multi_client_streams_match_batch(self, tmp_path):
        specs = self._specs()
        batch = self._batch_report(specs)
        outcomes = self._serve_specs(tmp_path, specs, partitions=3, seed=7)
        assert tuple(outcomes) == tuple(sorted(batch.jobs, key=lambda o: o.index))

    def test_submission_order_is_irrelevant(self, tmp_path):
        specs = self._specs()
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = self._serve_specs(tmp_path / "a", specs, partitions=2, seed=1)
        second = self._serve_specs(tmp_path / "b", specs, partitions=4, seed=99)
        assert tuple(first) == tuple(second)


class TestHttpEndpoints:
    def test_metrics_scrape_is_exposition_valid(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none", budget_mj=5.0, horizon_s=300.0)
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2, count=3)
            await asyncio.to_thread(client.drain)
            status, body = await asyncio.to_thread(client.http_get, "/metrics")
            assert status == 200
            families = validate_exposition(body)
            assert "repro_service_jobs_completed" in families
            assert families["repro_service_jobs_completed"] == "counter"
            assert "repro_service_eargm_horizons_completed" in families
            await service.shutdown()
            return body

        body = run_service(scenario())
        # a second scrape path: the JSON dialect returns the same text shape
        assert "# TYPE" in body

    #: status key -> the scrape family that carries it; the other
    #: numbers of the payload are status-only.
    CLUSTER_FAMILIES = {
        "submitted": "repro_service_jobs_submitted",
        "completed": "repro_service_jobs_completed",
        "failed": "repro_service_jobs_failed",
        "rejected": "repro_service_jobs_rejected",
        "energy_j": "repro_service_energy_joules",
        "pending": "repro_service_jobs_pending",
        "running": "repro_service_jobs_running",
        "clock_s": "repro_service_sim_clock_seconds",
        "eargm.horizons_completed": "repro_service_eargm_horizons_completed",
        "eargm.horizon_consumed_j": "repro_service_eargm_horizon_consumed_joules",
    }
    SERVICE_FAMILIES = {
        "events.total": "repro_service_events_total",
        "events.buffered": "repro_service_events_buffered",
        "cache.hits": "repro_service_cache_hits",
        "cache.misses": "repro_service_cache_misses",
        "cache.entries": "repro_service_cache_entries",
    }
    STATUS_ONLY = {
        "queued",
        "eargm.consumed_j",
        "eargm.budget_j",
        "events.dropped",
        "cache.evictions",
    }

    @staticmethod
    def _numbers(payload, prefix=""):
        for key, value in payload.items():
            if isinstance(value, dict):
                yield from TestHttpEndpoints._numbers(value, f"{prefix}{key}.")
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                yield f"{prefix}{key}", value

    def test_metrics_agree_with_status(self, tmp_path):
        async def scenario():
            config = make_config(
                tmp_path, policy="none", budget_mj=5.0, horizon_s=300.0, eager=False
            )
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2, count=3)
            await asyncio.to_thread(
                client.submit, "synt.mem.1n", scale=0.2, count=2, cluster="b"
            )
            snapshots = []
            for _ in range(2):  # queued (nothing simulated), then drained
                status = await asyncio.to_thread(client.status)
                _, body = await asyncio.to_thread(client.http_get, "/metrics")
                snapshots.append((status, body))
                await asyncio.to_thread(client.drain)
            await service.shutdown()
            return snapshots

        snapshots = run_service(scenario())
        assert snapshots[0][0]["clusters"]["default"]["pending"] == 3
        assert snapshots[1][0]["clusters"]["default"]["completed"] == 3
        for status, body in snapshots:
            samples = {}
            for line in body.splitlines():
                if line and not line.startswith("#"):
                    series, value = line.rsplit(" ", 1)
                    samples[series] = float(value)
            expected = {}
            for name, row in status["clusters"].items():
                assert "eargm" in row
                for key, value in self._numbers(row):
                    if key not in self.STATUS_ONLY:
                        family = self.CLUSTER_FAMILIES[key]
                        expected[f'{family}{{cluster="{name}"}}'] = float(value)
            sections = {k: status[k] for k in ("events", "cache")}
            for key, value in self._numbers(sections):
                if key not in self.STATUS_ONLY:
                    expected[self.SERVICE_FAMILIES[key]] = float(value)
            assert len(expected) == 2 * len(self.CLUSTER_FAMILIES) + len(
                self.SERVICE_FAMILIES
            )
            assert {series: samples.get(series) for series in expected} == expected

    def test_events_and_status_endpoints(self, tmp_path):
        async def scenario():
            config = make_config(tmp_path, policy="none")
            service = EarService(config, pool=fresh_pool())
            await service.start()
            client = ServiceClient(config.socket_path)
            await asyncio.to_thread(client.submit, "synt.cpu.1n", scale=0.2)
            await asyncio.to_thread(client.drain)
            status, body = await asyncio.to_thread(client.http_get, "/events?n=3")
            assert status == 200
            lines = [json.loads(line) for line in body.splitlines()]
            assert lines and all("subsystem" in line for line in lines)
            status, body = await asyncio.to_thread(client.http_get, "/status")
            assert status == 200
            payload = json.loads(body)
            assert payload["clusters"]["default"]["completed"] == 1
            status, _ = await asyncio.to_thread(client.http_get, "/nope")
            assert status == 404
            await service.shutdown()

        run_service(scenario())


@pytest.mark.slow
class TestSigtermDrain:
    def _spawn(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        sock = str(tmp_path / "ear.sock")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                sock,
                "--policy",
                "none",
                "--no-fsync",
                "--journal-dir",
                str(tmp_path / "journal"),
                *extra,
            ],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        client = ServiceClient(sock)
        client.wait_ready(timeout=30.0)
        return proc, client

    def test_sigterm_drains_and_leaves_resumable_journal(self, tmp_path):
        proc, client = self._spawn(tmp_path)
        try:
            client.submit("synt.cpu.1n", scale=0.2, count=3, seed=4)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        journal_dir = tmp_path / "journal"
        files = list(journal_dir.glob("*.jsonl"))
        assert len(files) == 1
        lines = [json.loads(x) for x in files[0].read_text().splitlines()]
        assert lines[-1]["record"] == "campaign_complete"
        completed = [x for x in lines if x["record"] == "completed"]
        assert len(completed) == 3

        # resume: the journal is extended, completed work is known
        proc2, client2 = self._spawn(tmp_path, "--resume")
        try:
            client2.shutdown()
            out2, _ = proc2.communicate(timeout=60)
        finally:
            if proc2.poll() is None:
                proc2.kill()
        assert proc2.returncode == 0, out2
        assert "resumed journal" in out2
        assert "3 runs already completed" in out2
        lines = [json.loads(x) for x in files[0].read_text().splitlines()]
        assert sum(1 for x in lines if x["record"] == "campaign_complete") == 2
