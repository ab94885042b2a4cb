"""Streaming telemetry: bounded buffers and incremental aggregation.

The batch exporters in :mod:`repro.telemetry.exporters` collect a whole
run and render once.  A persistent service cannot do that — events
arrive forever, so memory must stay bounded and metric state must be
mergeable incrementally.  Three pieces:

:class:`EventRing`
    A bounded ring of rendered JSONL event lines, the backing store for
    the service's ``/events`` tail endpoint.  Old events fall off the
    back; totals record how many were ever seen and dropped.
:class:`MetricsAggregator`
    Incremental, multi-source metric state rendered on demand into
    Prometheus text exposition format via the same deduplicating
    renderer the batch exporter uses.
:func:`validate_exposition`
    A strict exposition-format checker (one ``# TYPE`` per family,
    parseable samples, no duplicate series) used by the service tests
    and CI smoke to reject output a real scraper would reject.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, Mapping

from .exporters import event_to_json_line, render_metric_families
from .recorder import NodeTelemetry, TelemetryEvent

__all__ = ["EventRing", "MetricsAggregator", "validate_exposition"]


class EventRing:
    """Bounded buffer of rendered telemetry event lines.

    Events are rendered to canonical JSONL once on ingest (failing
    loudly on non-canonical payloads, same contract as the batch
    exporter) and kept in a fixed-size ring so a service that streams
    millions of events holds only the most recent ``capacity`` lines.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._lines: deque[str] = deque(maxlen=capacity)
        self._total = 0

    def extend(self, events: Iterable[TelemetryEvent]) -> int:
        """Ingest events (rendering each to a JSONL line); return count."""
        n = 0
        for event in events:
            self._lines.append(event_to_json_line(event))
            n += 1
        self._total += n
        return n

    def tail(self, n: int | None = None) -> list[str]:
        """The most recent ``n`` rendered lines (all retained if None)."""
        if n is None or n >= len(self._lines):
            return list(self._lines)
        if n <= 0:
            return []
        return list(self._lines)[-n:]

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def total_seen(self) -> int:
        """How many events were ever ingested (including dropped ones)."""
        return self._total

    @property
    def dropped(self) -> int:
        """How many events have fallen off the back of the ring."""
        return self._total - len(self._lines)


class MetricsAggregator:
    """Incremental metric state for a continuously scraped endpoint.

    Metric state arrives from two directions: whole
    :class:`NodeTelemetry` snapshots (each *replaces* that source's
    previous contribution — recorder counters are cumulative, so adding
    them would double-count) and direct service-level gauges/counters
    set by the control tier itself.  ``render()`` merges everything
    into exposition text.  The batch exporter
    :func:`~repro.telemetry.exporters.metrics_to_prometheus` is a
    one-source render of this class, so stream and batch outputs are
    assembled by the same code.
    """

    def __init__(self, *, prefix: str = "repro") -> None:
        self.prefix = prefix
        # source -> {(name, node): value} replaced wholesale per update
        self._src_counters: dict[str, dict[tuple[str, int], float]] = {}
        self._src_gauges: dict[str, dict[tuple[str, int], float]] = {}
        self._src_timers: dict[str, dict[tuple[str, int], tuple[int, float]]] = {}
        # service-level series, label string -> value
        self._gauges: dict[str, dict[str, float]] = {}
        self._counters: dict[str, dict[str, float]] = {}

    def update_source(self, source: str, snapshots: Iterable[NodeTelemetry]) -> None:
        """Replace ``source``'s contribution with fresh snapshots.

        Recorder state is cumulative, so each update supersedes the
        previous one for the same source — the aggregator never grows
        beyond (sources x metric names x nodes).
        """
        counters: dict[tuple[str, int], float] = {}
        gauges: dict[tuple[str, int], float] = {}
        timers: dict[tuple[str, int], tuple[int, float]] = {}
        for t in snapshots:
            for name, value in t.counters:
                counters[(name, t.node)] = value
            for name, value in t.gauges:
                gauges[(name, t.node)] = value
            for name, count, total in t.timers:
                timers[(name, t.node)] = (count, total)
        self._src_counters[source] = counters
        self._src_gauges[source] = gauges
        self._src_timers[source] = timers

    def set_gauge(self, name: str, value: float, *, labels: str = "") -> None:
        """Set a service-level gauge sample (labels rendered verbatim)."""
        self._gauges.setdefault(name, {})[labels] = float(value)

    def set_counter(self, name: str, value: float, *, labels: str = "") -> None:
        """Set a service-level cumulative counter sample."""
        self._counters.setdefault(name, {})[labels] = float(value)

    def render(self) -> str:
        """Current state as Prometheus text exposition format."""
        counters: dict[str, list[tuple[str, float]]] = {}
        gauges: dict[str, list[tuple[str, float]]] = {}
        timer_counts: dict[str, list[tuple[str, float]]] = {}
        timer_totals: dict[str, list[tuple[str, float]]] = {}
        for per_source, bucket in (
            (self._src_counters, counters),
            (self._src_gauges, gauges),
        ):
            merged: dict[tuple[str, int], float] = {}
            for source in sorted(per_source):
                for (name, node), value in per_source[source].items():
                    merged[(name, node)] = merged.get((name, node), 0.0) + value
            for (name, node), value in sorted(merged.items()):
                bucket.setdefault(name, []).append((f'node="{node}"', value))
        merged_timers: dict[tuple[str, int], tuple[int, float]] = {}
        for source in sorted(self._src_timers):
            for (name, node), (count, total) in self._src_timers[source].items():
                prev = merged_timers.get((name, node), (0, 0.0))
                merged_timers[(name, node)] = (prev[0] + count, prev[1] + total)
        for (name, node), (count, total) in sorted(merged_timers.items()):
            timer_counts.setdefault(name, []).append((f'node="{node}"', float(count)))
            timer_totals.setdefault(name, []).append((f'node="{node}"', total))
        for name, samples in self._counters.items():
            counters.setdefault(name, []).extend(sorted(samples.items()))
        for name, samples in self._gauges.items():
            gauges.setdefault(name, []).extend(sorted(samples.items()))

        families: list[tuple[str, str, list[tuple[str, float]]]] = []
        for name in sorted(counters):
            families.append((f"{self.prefix}_{name}", "counter", counters[name]))
        for name in sorted(gauges):
            families.append((f"{self.prefix}_{name}", "gauge", gauges[name]))
        for name in sorted(timer_counts):
            families.append(
                (f"{self.prefix}_{name}_count", "counter", timer_counts[name])
            )
            families.append(
                (f"{self.prefix}_{name}_seconds_total", "counter", timer_totals[name])
            )
        return render_metric_families(families)

    def series_count(self) -> int:
        """How many distinct series the aggregator currently holds."""
        n = sum(len(d) for d in self._src_counters.values())
        n += sum(len(d) for d in self._src_gauges.values())
        n += sum(len(d) for d in self._src_timers.values())
        n += sum(len(d) for d in self._gauges.values())
        n += sum(len(d) for d in self._counters.values())
        return n


# -- strict exposition-format checking ----------------------------------------

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_SPECIAL_VALUES = {"NaN", "+Inf", "-Inf", "Inf"}


def _check_sample(line: str, types: Mapping[str, str]) -> tuple[str, str]:
    """Validate one sample line; return its (family, labelset) identity."""
    m = _SAMPLE_RE.match(line)
    if m is None:
        raise ValueError(f"unparseable sample line: {line!r}")
    name = m.group("name")
    family = name
    if family not in types:
        # summary/timer-style derived names attach to their base family
        raise ValueError(f"sample {name!r} has no preceding # TYPE declaration")
    labels = m.group("labels") or ""
    if labels:
        for pair in labels.split(","):
            if not _LABEL_RE.match(pair):
                raise ValueError(f"bad label pair {pair!r} in line {line!r}")
    value = m.group("value")
    if value not in _SPECIAL_VALUES:
        try:
            float(value)
        except ValueError:
            raise ValueError(f"bad sample value {value!r} in line {line!r}") from None
    return name, labels


def validate_exposition(text: str) -> dict[str, str]:
    """Strictly check Prometheus text exposition format.

    Enforces what a strict scraper enforces — and what this repo's
    exporters promise:

    - every non-comment line parses as ``name[{labels}] value [ts]``;
    - each ``# TYPE`` names a valid family with a known kind and
      appears at most once per family, before that family's samples;
    - every sample belongs to a declared family (our exporters always
      declare); and
    - no duplicate ``(family, labelset)`` series.

    Returns the ``{family: kind}`` mapping on success; raises
    ``ValueError`` describing the first violation.
    """
    types: dict[str, str] = {}
    seen_series: set[tuple[str, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            _, _, family, kind = parts
            if not _NAME_RE.match(family):
                raise ValueError(f"line {lineno}: bad family name {family!r}")
            if kind not in {"counter", "gauge", "histogram", "summary", "untyped"}:
                raise ValueError(f"line {lineno}: bad metric kind {kind!r}")
            if family in types:
                raise ValueError(
                    f"line {lineno}: duplicate # TYPE for family {family!r}"
                )
            types[family] = kind
            continue
        if line.startswith("#"):  # HELP or comment: tolerated
            continue
        try:
            series = _check_sample(line, types)
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        if series in seen_series:
            raise ValueError(
                f"line {lineno}: duplicate series {series[0]!r}{{{series[1]}}}"
            )
        seen_series.add(series)
    return types
