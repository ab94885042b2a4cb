"""Telemetry exporters: JSONL event logs, Prometheus text metrics and
per-stage timing summaries.

All exporters accept either a :class:`~repro.sim.result.RunResult`
(whose nodes carry :class:`~repro.telemetry.recorder.NodeTelemetry`
snapshots) or the raw snapshots/events, so they work on anything the
run cache returns.  Output is deterministic: metric families and labels
are emitted in sorted order, events in timeline order.

Two contracts matter for *streaming* consumers (the service tier
scrapes these continuously):

- JSONL payload values are canonicalized to JSON-native scalars (enum
  members export their ``name``, numpy scalars their Python value) and
  anything else fails loudly instead of degrading to an opaque
  ``repr`` string.
- Prometheus family names are deduplicated *after* sanitization, so
  two distinct raw names that sanitize identically (``earl.window`` vs
  ``earl/window``) get distinct final names and each ``# TYPE`` line is
  emitted exactly once — a strict scraper rejects duplicates.  Sample
  values are formatted at full precision (shortest round-trip form),
  not the 6-significant-digit ``%g``.
"""

from __future__ import annotations

import enum
import json
import math
import re
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .recorder import NodeTelemetry, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.result import RunResult

__all__ = [
    "canonical_scalar",
    "events_to_jsonl",
    "event_to_json_line",
    "format_metric_value",
    "assign_metric_names",
    "render_metric_families",
    "metrics_to_prometheus",
    "stage_timing_summary",
]

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _telemetries(source) -> list[NodeTelemetry]:
    """Accept a RunResult, an iterable of NodeTelemetry, or one snapshot."""
    if isinstance(source, NodeTelemetry):
        return [source]
    nodes = getattr(source, "nodes", None)
    if nodes is not None:  # RunResult
        return [n.telemetry for n in nodes if n.telemetry is not None]
    return [t for t in source if t is not None]


def _events(source) -> tuple[TelemetryEvent, ...]:
    events = getattr(source, "events", None)
    if events is not None and not isinstance(source, NodeTelemetry):
        return tuple(events)  # RunResult.events (already merged)
    from .recorder import merge_events

    return merge_events(_telemetries(source))


# -- JSONL event log ----------------------------------------------------------


def canonical_scalar(value):
    """Coerce one telemetry payload value to a JSON-native scalar.

    Enum members export their ``name``; numpy scalars their Python
    value.  Anything that is not JSON-native after that raises
    ``TypeError`` — downstream consumers are typed and an opaque
    ``repr`` string would silently break them.
    """
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.generic):
        item = value.item()
        if isinstance(item, (bool, int, float, str)):
            return item
    raise TypeError(
        f"telemetry payload value {value!r} ({type(value).__name__}) "
        "is not a JSON-canonical scalar"
    )


def event_to_json_line(event: TelemetryEvent) -> str:
    """One event as a compact JSON object with canonical scalar values."""
    raw = event.to_dict()
    try:
        clean = {key: canonical_scalar(value) for key, value in raw.items()}
    except TypeError as err:
        raise TypeError(
            f"event {event.subsystem}/{event.kind} at t={event.time_s}: {err}"
        ) from err
    return json.dumps(clean, separators=(",", ":"))


def events_to_jsonl(source) -> str:
    """One compact JSON object per event, in timeline order.

    The flat layout (payload keys inlined next to ``time_s``/``node``/
    ``subsystem``/``kind``) grep-s and loads line-by-line — the shape
    every structured-log pipeline expects.  Payload values are
    canonicalized (see :func:`canonical_scalar`); a non-canonical value
    raises instead of serializing as an opaque repr string.
    """
    lines = [event_to_json_line(e) for e in _events(source)]
    return "\n".join(lines) + ("\n" if lines else "")


# -- Prometheus-style text metrics -------------------------------------------


def format_metric_value(value: float) -> str:
    """Full-precision exposition value: shortest round-trip float form.

    ``%g`` keeps only 6 significant digits, which silently truncates
    large joule counters between scrapes; ``repr`` of a float is the
    shortest string that parses back to the same double.  Non-finite
    values use the exposition-format spellings.
    """
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def assign_metric_names(raw_names: Sequence[str]) -> dict[str, str]:
    """Map raw family names to unique sanitized exposition names.

    Sanitization replaces every non ``[a-zA-Z0-9_]`` character with
    ``_``, which can collapse distinct raw names onto one final name.
    Collisions get deterministic numeric suffixes (``_2``, ``_3``, ...)
    in the order the raw names are supplied, so callers that supply a
    sorted sequence get a stable mapping across exports.
    """
    assigned: dict[str, str] = {}
    used: set[str] = set()
    for raw in raw_names:
        if raw in assigned:
            continue
        base = _METRIC_NAME_RE.sub("_", raw)
        candidate = base
        n = 1
        while candidate in used:
            n += 1
            candidate = f"{base}_{n}"
        assigned[raw] = candidate
        used.add(candidate)
    return assigned


def render_metric_families(
    families: Sequence[tuple[str, str, Sequence[tuple[str, float]]]],
) -> str:
    """Render ``(raw_name, kind, [(labels, value), ...])`` families.

    Emits exactly one ``# TYPE`` line per family (names deduplicated
    post-sanitization via :func:`assign_metric_names`), samples in the
    order supplied by the caller, values at full precision.  ``labels``
    is the rendered label set without braces (e.g. ``node="0"``) or
    ``""``.
    """
    names = assign_metric_names([raw for raw, _, _ in families])
    out: list[str] = []
    for raw, kind, samples in families:
        name = names[raw]
        out.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            label_part = f"{{{labels}}}" if labels else ""
            out.append(f"{name}{label_part} {format_metric_value(value)}")
    return "\n".join(out) + ("\n" if out else "")


def metrics_to_prometheus(source, *, prefix: str = "repro") -> str:
    """Counters, gauges and timers in Prometheus text exposition format.

    Timers expand into ``*_count`` and ``*_seconds_total`` pairs, the
    conventional summary encoding.  Every sample is labelled with its
    node id.  The output is exposition-valid: one ``# TYPE`` per final
    family name even when distinct raw names sanitize identically.
    This is a one-source :class:`~repro.telemetry.stream.MetricsAggregator`
    render, so batch and scraped output share one family assembly.
    """
    from .stream import MetricsAggregator

    aggregator = MetricsAggregator(prefix=prefix)
    aggregator.update_source("run", _telemetries(source))
    return aggregator.render()


# -- per-stage timing summary -------------------------------------------------


def _stage_spans(
    events: Sequence[TelemetryEvent], end_s: float
) -> Iterable[tuple[int, str, float]]:
    """Durations of policy stages per node, from ``policy/stage`` events."""
    open_stage: dict[int, tuple[str, float]] = {}
    for e in events:
        if e.subsystem != "policy" or e.kind != "stage":
            continue
        prev = open_stage.get(e.node)
        if prev is not None:
            yield e.node, prev[0], max(0.0, e.time_s - prev[1])
        open_stage[e.node] = (str(e.payload_dict.get("stage")), e.time_s)
    for node, (stage, since) in open_stage.items():
        yield node, stage, max(0.0, end_s - since)


def stage_timing_summary(source, *, end_s: float | None = None) -> list[dict]:
    """Rows of ``{node, name, count, total_s, mean_s}``.

    Two families: recorder timers (``engine.iteration_s``,
    ``earl.window_s``, ...) and policy-stage spans derived from the
    ``policy/stage`` transition events (``stage.IMC_FREQ_SEL``, ...),
    so the figure-2 state machine's time budget is visible per node.
    """
    telemetries = _telemetries(source)
    events = _events(source)
    if end_s is None:
        end_s = getattr(source, "time_s", None)
        if end_s is None:
            end_s = max((e.time_s for e in events), default=0.0)
    rows: list[dict] = []
    for t in telemetries:
        for name, count, total in t.timers:
            rows.append(
                {
                    "node": t.node,
                    "name": name,
                    "count": count,
                    "total_s": total,
                    "mean_s": total / count if count else 0.0,
                }
            )
    spans: dict[tuple[int, str], list[float]] = {}
    for node, stage, dur in _stage_spans(events, end_s):
        spans.setdefault((node, f"stage.{stage}"), []).append(dur)
    for (node, name), durs in sorted(spans.items()):
        total = sum(durs)
        rows.append(
            {
                "node": node,
                "name": name,
                "count": len(durs),
                "total_s": total,
                "mean_s": total / len(durs),
            }
        )
    rows.sort(key=lambda r: (r["node"], r["name"]))
    return rows
