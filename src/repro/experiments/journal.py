"""Crash-safe campaign journals: an append-only JSONL write-ahead log.

A learning campaign or a cluster policy-compare is hours of work whose
value accrues one run at a time; a Ctrl-C, a dead machine or a worker
segfault must not reduce it to "whatever happened to land in the run
cache".  A :class:`CampaignJournal` records every *submitted*,
*completed* and *failed* request of a campaign as one JSON line,
flushed and ``fsync``'d per record, under
``results/.journal/<campaign-id>.jsonl``.  On resume the journal is
replayed (tolerating a torn final line — the record being written when
the power went out), completed work is served from the run cache, and
the campaign continues from the interruption point.

Division of labour with the run cache:

* the **cache** holds the physics (content-addressed
  :class:`~repro.sim.result.RunResult` blobs) — it is what makes
  resume cheap;
* the **journal** holds the *campaign state*: which requests exist,
  which completed, which were quarantined as poison jobs — it is what
  makes resume *known* (coverage is reported, poison jobs are not
  naively re-run) and campaigns auditable after the fact.

A journaled key whose cached result has been evicted is simply re-run:
the journal is advisory for physics, authoritative for history.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "DEFAULT_JOURNAL_DIR",
    "CampaignJournal",
    "JournalState",
    "campaign_id",
]

#: Conventional journal location, next to the run cache.
DEFAULT_JOURNAL_DIR = Path("results") / ".journal"


def campaign_id(*parts) -> str:
    """Stable 16-hex-digit identity of a campaign.

    Hash of the canonical JSON of the parts (typically the sorted run
    request keys plus campaign parameters), so the same campaign
    resumes into the same journal and a changed campaign gets a fresh
    one.
    """
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class JournalState:
    """Replayed view of one journal file."""

    #: the ``campaign`` header payload, if one was written.
    header: dict = field(default_factory=dict)
    #: keys submitted at least once.
    submitted: set[str] = field(default_factory=set)
    #: keys that completed (possibly served from cache).
    completed: set[str] = field(default_factory=set)
    #: quarantined keys -> final error string.
    failed: dict[str, str] = field(default_factory=dict)
    #: True when a ``campaign_complete`` trailer was replayed.
    finished: bool = False
    #: records dropped during replay (torn tail, foreign garbage).
    corrupt_lines: int = 0

    @property
    def total(self) -> int:
        """Distinct requests the journal knows about."""
        return len(self.submitted | self.completed | set(self.failed))

    def coverage(self) -> float:
        """Fraction of known requests that completed."""
        total = self.total
        return len(self.completed) / total if total else 0.0

    def describe(self) -> str:
        """One-line resume summary for CLI output."""
        return (
            f"{len(self.completed)}/{self.total} completed, "
            f"{len(self.failed)} quarantined"
            + (", campaign finished" if self.finished else "")
        )


class CampaignJournal:
    """Append-only, fsync-per-record JSONL write-ahead journal.

    Records are flat JSON objects with a ``record`` discriminator:
    ``campaign`` (header), ``submitted``, ``completed``, ``failed``,
    ``campaign_complete`` (trailer).  Appends are atomic at the line
    level on POSIX (single ``write`` of less than ``PIPE_BUF``); a
    crash mid-append leaves at most one torn final line, which
    :meth:`replay` drops.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = Path(path)
        #: fsync per record (the crash-safety contract); tests may turn
        #: it off to keep thousands of appends fast.
        self.fsync = fsync
        self._fh = None
        # appends can come from several pump threads when the service
        # tier shares one journal; the lock keeps lines un-torn.
        self._lock = threading.Lock()
        self._completed: set[str] = set()
        self._failed: set[str] = set()
        self._submitted: set[str] = set()

    # -- construction ---------------------------------------------------------

    @classmethod
    def for_campaign(
        cls,
        campaign: str,
        *,
        directory: str | os.PathLike | None = None,
        resume: bool = False,
        meta: Mapping | None = None,
    ) -> "CampaignJournal":
        """Open the journal for a campaign id.

        Without ``resume`` an existing journal for the same campaign is
        truncated (a fresh campaign supersedes the old history); with
        ``resume`` the existing file is kept and extended.  A header
        record is written for fresh journals.
        """
        directory = Path(directory) if directory is not None else DEFAULT_JOURNAL_DIR
        journal = cls(directory / f"{campaign}.jsonl")
        if not resume and journal.path.exists():
            journal.path.unlink()
        if resume:
            state = journal.replay()
            journal._completed = set(state.completed)
            journal._failed = set(state.failed)
            journal._submitted = set(state.submitted)
        if not journal.path.exists() or journal.path.stat().st_size == 0:
            journal.record("campaign", campaign=campaign, **dict(meta or {}))
        return journal

    # -- writing --------------------------------------------------------------

    def record(self, record: str, **payload) -> None:
        """Append one record and force it to stable storage."""
        line = json.dumps({"record": record, **payload}, sort_keys=True)
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self.path.open("a", encoding="utf-8")
            self._fh.write(line + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def submitted(self, key: str, **meta) -> None:
        """Journal a request entering execution (idempotent per key)."""
        if key in self._submitted:
            return
        self._submitted.add(key)
        self.record("submitted", key=key, **meta)

    def completed(self, key: str, *, cached: bool = False) -> None:
        """Journal a request finishing (``cached`` = served, not run)."""
        if key in self._completed:
            return
        self._completed.add(key)
        self.record("completed", key=key, cached=cached)

    def failed(self, key: str, *, error: str, attempts: int) -> None:
        """Journal a quarantined request with its final error."""
        if key in self._failed:
            return
        self._failed.add(key)
        self.record("failed", key=key, error=error, attempts=attempts)

    def finish(self, **meta) -> None:
        """Journal the campaign trailer (everything accounted for)."""
        self.record("campaign_complete", **meta)

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replay ---------------------------------------------------------------

    def replay(self) -> JournalState:
        """Rebuild campaign state from the file, torn-tail tolerant.

        A truncated final line (crash mid-append) is silently dropped;
        corrupt lines elsewhere are counted but skipped, never fatal —
        a journal that survived a crash is exactly the artefact resume
        needs, so replay must not be the thing that refuses it.
        """
        state = JournalState()
        if not self.path.exists():
            return state
        with self.path.open("r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                state.corrupt_lines += 1
                continue
            if not isinstance(rec, dict):
                state.corrupt_lines += 1
                continue
            kind = rec.get("record")
            key = rec.get("key")
            if kind == "campaign":
                state.header = {
                    k: v for k, v in rec.items() if k != "record"
                }
            elif kind == "submitted" and isinstance(key, str):
                state.submitted.add(key)
            elif kind == "completed" and isinstance(key, str):
                state.completed.add(key)
            elif kind == "failed" and isinstance(key, str):
                state.failed[key] = str(rec.get("error", ""))
            elif kind == "campaign_complete":
                state.finished = True
        return state

