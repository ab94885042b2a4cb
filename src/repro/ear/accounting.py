"""Energy accounting: the ``eacct`` service.

EAR's accounting service records per-job, per-node energy and
performance data in a database; administrators query it with ``eacct``.
The reproduction keeps an in-memory store with JSON export — enough to
support the experiment harness and the accounting-oriented tests, and
shaped like the real records (job id, node, time, DC energy, average
power, average frequencies, policy settings).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..errors import ExperimentError
from ..hw.units import joules_to_wh

if TYPE_CHECKING:
    from ..sim.result import RunResult

__all__ = ["NodeJobRecord", "JobRecord", "AccountingDB", "node_job_records"]


@dataclass(frozen=True)
class NodeJobRecord:
    """One node's share of one job."""

    node_id: int
    seconds: float
    dc_energy_j: float
    avg_cpu_freq_ghz: float
    avg_imc_freq_ghz: float

    @property
    def avg_dc_power_w(self) -> float:
        """Average DC node power over the report interval."""
        return self.dc_energy_j / self.seconds if self.seconds > 0 else 0.0


def node_job_records(result: RunResult) -> tuple[NodeJobRecord, ...]:
    """Accounting rows for one run, with *per-node* durations.

    Each node's row divides that node's energy by that node's own
    elapsed seconds (``NodeResult.seconds``); results predating the
    per-node clock (seconds == 0) fall back to the job wall time.
    """
    return tuple(
        NodeJobRecord(
            node_id=n.node_id,
            seconds=n.seconds if n.seconds > 0 else result.time_s,
            dc_energy_j=n.dc_energy_j,
            avg_cpu_freq_ghz=n.avg_cpu_freq_ghz,
            avg_imc_freq_ghz=n.avg_imc_freq_ghz,
        )
        for n in result.nodes
    )


@dataclass(frozen=True)
class JobRecord:
    """One job: workload + policy settings + per-node records."""

    job_id: int
    workload: str
    policy: str
    cpu_policy_th: float
    unc_policy_th: float
    nodes: tuple[NodeJobRecord, ...] = field(default_factory=tuple)

    @property
    def seconds(self) -> float:
        """Job wall time from the per-node reports."""
        return max((n.seconds for n in self.nodes), default=0.0)

    @property
    def dc_energy_j(self) -> float:
        """Total DC energy of the job across its nodes, in joules."""
        return sum(n.dc_energy_j for n in self.nodes)

    @property
    def dc_energy_wh(self) -> float:
        """Total DC energy of the job, in watt-hours."""
        return joules_to_wh(self.dc_energy_j)

    @property
    def avg_node_power_w(self) -> float:
        """Mean of the per-node average DC powers."""
        if not self.nodes or self.seconds <= 0:
            return 0.0
        return self.dc_energy_j / self.seconds / len(self.nodes)


class AccountingDB:
    """In-memory job accounting with eacct-style queries."""

    def __init__(self) -> None:
        self._jobs: dict[int, JobRecord] = {}
        self._next_id = 1

    def insert(self, record: JobRecord) -> None:
        """Store a finished job's accounting row."""
        if record.job_id in self._jobs:
            raise ExperimentError(f"duplicate job id {record.job_id}")
        self._jobs[record.job_id] = record
        self._next_id = max(self._next_id, record.job_id + 1)

    def upsert_nodes(self, record: JobRecord) -> None:
        """Insert a job, or append node rows to an existing one.

        This is the EARDBD ingestion path: a daemon tier may flush a
        job's per-node reports across several batches, so the job row
        has to grow node by node.  Job-level metadata must match the
        stored record, and a node may only be reported once per job.
        """
        existing = self._jobs.get(record.job_id)
        if existing is None:
            self.insert(record)
            return
        for key in ("workload", "policy", "cpu_policy_th", "unc_policy_th"):
            if getattr(existing, key) != getattr(record, key):
                raise ExperimentError(
                    f"job {record.job_id}: conflicting {key} in node report"
                )
        seen = {n.node_id for n in existing.nodes}
        dup = seen.intersection(n.node_id for n in record.nodes)
        if dup:
            raise ExperimentError(
                f"job {record.job_id}: node(s) {sorted(dup)} reported twice"
            )
        self._jobs[record.job_id] = replace(
            existing, nodes=existing.nodes + record.nodes
        )

    def new_job_id(self) -> int:
        """Allocate the next job id."""
        jid = self._next_id
        self._next_id += 1
        return jid

    def job(self, job_id: int) -> JobRecord:
        """Look up one job row by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ExperimentError(f"unknown job {job_id}") from None

    def jobs(self, *, workload: str | None = None, policy: str | None = None) -> list[JobRecord]:
        """eacct-style filtered listing, insertion-ordered."""
        out = []
        for rec in self._jobs.values():
            if workload is not None and rec.workload != workload:
                continue
            if policy is not None and rec.policy != policy:
                continue
            out.append(rec)
        return out

    def total_energy_j(self, records: Iterable[JobRecord] | None = None) -> float:
        """Total DC energy over every stored job, in joules."""
        records = self._jobs.values() if records is None else records
        return sum(r.dc_energy_j for r in records)

    def node_rows(self) -> int:
        """Total per-node rows stored (the EARDBD reconciliation unit)."""
        return sum(len(rec.nodes) for rec in self._jobs.values())

    def to_json(self) -> str:
        """Serialise the whole store (for report artefacts)."""
        return json.dumps(
            [asdict(rec) for rec in self._jobs.values()], indent=2, sort_keys=True
        )

    @classmethod
    def from_json(cls, payload: str) -> "AccountingDB":
        """Rebuild a database from its JSON serialisation."""
        db = cls()
        for item in json.loads(payload):
            nodes = tuple(NodeJobRecord(**n) for n in item.pop("nodes"))
            db.insert(JobRecord(nodes=nodes, **item))
        return db

    def save(self, path: str | os.PathLike) -> Path:
        """Write the store as JSON; the file ``eacct`` queries later."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "AccountingDB":
        """Reload a store previously written by :meth:`save`."""
        path = Path(path)
        try:
            payload = path.read_text()
        except FileNotFoundError:
            raise ExperimentError(f"no accounting database at {path}") from None
        try:
            return cls.from_json(payload)
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ExperimentError(f"corrupt accounting database {path}: {exc}") from None
