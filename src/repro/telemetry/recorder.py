"""The telemetry event model and recorder API.

Three layers:

:class:`TelemetryEvent`
    One typed occurrence: ``(node, time_s, subsystem, kind, payload)``.
    The payload is a tuple of sorted ``(key, value)`` pairs — plain,
    hashable, picklable data — so events compare structurally and ride
    through the experiment pool's process boundary unchanged.

:class:`Recorder` / :class:`NullRecorder` / :class:`EventRecorder`
    The emit API.  Subsystems hold a recorder and call
    ``event``/``counter``/``gauge``/``observe``; the null recorder is a
    no-op singleton (:data:`NULL_RECORDER`) so instrumentation costs
    nothing when telemetry is off.  Hot per-iteration sites should
    additionally guard on :attr:`Recorder.enabled` to skip building the
    keyword payload.

:class:`NodeTelemetry`
    The frozen end-of-run snapshot of one node's recorder, attached to
    :class:`~repro.sim.result.NodeResult`.  All mappings are stored as
    sorted tuples so two identically seeded runs produce structurally
    equal (``==``) telemetry.

Determinism: recorders take their timestamps from an injected clock
(simulated node time), never the wall clock, and draw no randomness —
the same seed yields the identical event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

__all__ = [
    "TelemetryEvent",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "EventRecorder",
    "NodeTelemetry",
]

#: Payload values are restricted to plain scalars so every event is
#: JSON-serialisable and picklable without custom hooks.
Scalar = float | int | str | bool | None


@dataclass(frozen=True)
class TelemetryEvent:
    """One typed occurrence inside a run."""

    node: int
    time_s: float
    subsystem: str
    kind: str
    #: sorted ``(key, value)`` pairs; see :attr:`payload_dict`.
    payload: tuple[tuple[str, Scalar], ...] = ()

    @property
    def payload_dict(self) -> dict[str, Scalar]:
        """The payload as a plain dict."""
        return dict(self.payload)

    def to_dict(self) -> dict:
        """Flat JSON-friendly view (payload keys inlined)."""
        out: dict = {
            "time_s": self.time_s,
            "node": self.node,
            "subsystem": self.subsystem,
            "kind": self.kind,
        }
        out.update(self.payload)
        return out


def _freeze_payload(payload: Mapping[str, Scalar]) -> tuple[tuple[str, Scalar], ...]:
    return tuple(sorted(payload.items()))


class Recorder:
    """No-op recorder base; doubles as the null implementation.

    ``enabled`` lets hot paths skip keyword-dict construction entirely:

    >>> if recorder.enabled:
    ...     recorder.event("earl", "sample_rejected")
    """

    enabled: bool = False

    def event(
        self, subsystem: str, kind: str, *, time_s: float | None = None, **payload: Scalar
    ) -> None:
        """Record one typed event (no-op here)."""

    def counter(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter (no-op here)."""

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (no-op here)."""

    def observe(self, name: str, seconds: float) -> None:
        """Add one timer observation (no-op here)."""

    def snapshot(self) -> "NodeTelemetry | None":
        """Frozen end-of-run view; ``None`` for the null recorder."""
        return None


class NullRecorder(Recorder):
    """Explicit alias for readability at call sites."""


#: Shared zero-cost default; safe because it holds no state.
NULL_RECORDER = NullRecorder()


@dataclass(frozen=True)
class NodeTelemetry:
    """Frozen telemetry of one node, serialised into the run result."""

    node: int
    events: tuple[TelemetryEvent, ...] = ()
    #: monotonic counters, sorted by name.
    counters: tuple[tuple[str, float], ...] = ()
    #: last-write-wins gauges, sorted by name.
    gauges: tuple[tuple[str, float], ...] = ()
    #: timers as ``(name, count, total_seconds)``, sorted by name.
    timers: tuple[tuple[str, int, float], ...] = ()


class EventRecorder(Recorder):
    """Collecting recorder for one node of one run.

    Parameters
    ----------
    node:
        Node id stamped on every event (convention: ``-1`` for
        cluster-scope emitters such as EARGM).
    clock:
        Zero-argument callable returning the current *simulated* time;
        bound to ``node.elapsed_s`` by the engine.  Callers may override
        per event with ``time_s=``.
    """

    enabled = True

    def __init__(self, *, node: int, clock: Callable[[], float] | None = None) -> None:
        self.node = node
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.events: list[TelemetryEvent] = []
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, list] = {}

    def event(
        self, subsystem: str, kind: str, *, time_s: float | None = None, **payload: Scalar
    ) -> None:
        """Record one typed event, stamped with the node clock."""
        self.events.append(
            TelemetryEvent(
                node=self.node,
                time_s=self._clock() if time_s is None else time_s,
                subsystem=subsystem,
                kind=kind,
                payload=_freeze_payload(payload),
            )
        )

    def counter(self, name: str, value: float = 1.0) -> None:
        """Increment a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value."""
        self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Add one duration sample to a timer."""
        cell = self._timers.get(name)
        if cell is None:
            self._timers[name] = [1, seconds]
        else:
            cell[0] += 1
            cell[1] += seconds

    def snapshot(self) -> NodeTelemetry:
        """Freeze this recorder into an immutable NodeTelemetry."""
        return NodeTelemetry(
            node=self.node,
            events=tuple(self.events),
            counters=tuple(sorted(self._counters.items())),
            gauges=tuple(sorted(self._gauges.items())),
            timers=tuple(
                (name, count, total)
                for name, (count, total) in sorted(self._timers.items())
            ),
        )


def merge_events(
    telemetries: Iterable[NodeTelemetry],
) -> tuple[TelemetryEvent, ...]:
    """Interleave per-node event streams into one timeline.

    Stable sort on ``(time_s, node)``: each node's stream is already
    time-ordered, so the merged order is deterministic.
    """
    events: list[TelemetryEvent] = []
    for t in telemetries:
        events.extend(t.events)
    events.sort(key=lambda e: (e.time_s, e.node))
    return tuple(events)
