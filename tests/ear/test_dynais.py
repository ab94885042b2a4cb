"""DynAIS loop detection."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ear.dynais import Dynais, DynaisEvent
from repro.workloads.mpi_trace import allreduce_pattern, pencil_pattern, stencil_pattern
from tests.ear.dynais_reference import Dynais as ReferenceDynais


def feed(dynais: Dynais, events) -> list[DynaisEvent]:
    return [dynais.observe(e) for e in events]


class TestDetection:
    def test_locks_onto_simple_loop(self):
        d = Dynais(confirm=3)
        pattern = [1, 2, 3]
        out = feed(d, pattern * 6)
        assert DynaisEvent.NEW_LOOP in out
        assert d.in_loop
        assert d.period == 3

    def test_iteration_boundaries_fire_once_per_period(self):
        d = Dynais(confirm=3)
        pattern = [1, 2, 3, 4]
        out = feed(d, pattern * 10)
        boundaries = out.count(DynaisEvent.NEW_ITERATION)
        # after lock-on, one boundary per remaining period
        assert boundaries >= 5
        # never more boundaries than periods
        assert boundaries <= 10

    def test_random_stream_never_locks(self):
        d = Dynais()
        out = feed(d, [7, 3, 9, 1, 4, 8, 2, 6, 5, 10, 13, 11, 12, 15, 14])
        assert all(e is DynaisEvent.NO_LOOP for e in out)
        assert not d.in_loop

    def test_loop_end_detected(self):
        d = Dynais(confirm=3)
        feed(d, [1, 2] * 8)
        assert d.in_loop
        out = feed(d, [99])
        assert out[-1] is DynaisEvent.END_LOOP
        assert not d.in_loop

    def test_relocks_after_phase_change(self):
        d = Dynais(confirm=3)
        feed(d, [1, 2] * 8)
        feed(d, [99])  # END_LOOP
        out = feed(d, [5, 6, 7] * 6)
        assert DynaisEvent.NEW_LOOP in out
        assert d.period == 3

    def test_smallest_period_wins(self):
        """An outer loop of two identical halves reports the inner period."""
        d = Dynais(confirm=3)
        feed(d, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
        assert d.period == 2

    def test_constant_stream_is_period_one(self):
        d = Dynais(confirm=3)
        feed(d, [5] * 10)
        assert d.period == 1


class TestRealPatterns:
    @pytest.mark.parametrize(
        "pattern",
        [stencil_pattern(4), allreduce_pattern(2), pencil_pattern()],
        ids=["stencil", "allreduce", "pencil"],
    )
    def test_locks_on_real_mpi_patterns(self, pattern):
        d = Dynais(confirm=3)
        out = feed(d, list(pattern) * 8)
        assert d.in_loop
        assert d.period == len(pattern)
        assert out.count(DynaisEvent.NEW_ITERATION) >= 3


class TestRobustness:
    def test_reset(self):
        d = Dynais(confirm=3)
        feed(d, [1, 2] * 8)
        d.reset()
        assert not d.in_loop
        assert feed(d, [1, 2])[0] is DynaisEvent.NO_LOOP

    def test_history_is_bounded(self):
        d = Dynais(max_period=8, confirm=3)
        feed(d, list(range(100000)) )
        assert len(d._history) <= 4 * 8 * 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Dynais(max_period=0)
        with pytest.raises(ValueError):
            Dynais(confirm=1)

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6),
        st.integers(min_value=4, max_value=8),
    )
    @settings(max_examples=40)
    def test_any_periodic_stream_locks(self, body, repeats):
        """Property: repeating any body enough times gets detected."""
        d = Dynais(confirm=3)
        out = feed(d, body * repeats * 3)
        assert d.in_loop
        assert d.period is not None
        assert d.period <= len(body)  # may find a sub-period
        # a lock holds only while the last confirm + 1 periods repeat
        tail = (body * repeats * 3)[-(d.confirm + 1) * d.period :]
        assert tail[d.period :] == tail[: -d.period]


RESET = None  # a stream item that calls reset() instead of observe()


def assert_matches_reference(stream, max_period, confirm) -> tuple[bool, bool]:
    """Drive the detector and the reference oracle in lockstep.

    Returns whether the history was trimmed while locked and while
    searching, so callers can show the stream reached both cases.
    """
    d = Dynais(max_period=max_period, confirm=confirm)
    ref = ReferenceDynais(max_period=max_period, confirm=confirm)
    trimmed_locked = trimmed_searching = False
    for i, event in enumerate(stream):
        if event is RESET:
            d.reset()
            ref.reset()
            continue
        was_locked = d.in_loop
        before = len(d._history)
        got, want = d.observe(event), ref.observe(event)
        assert (got.name, d.period, d.in_loop) == (
            want.name,
            ref.period,
            ref.in_loop,
        ), f"event {i} ({event!r})"
        if len(d._history) <= before:
            trimmed_locked |= was_locked
            trimmed_searching |= not was_locked
    return trimmed_locked, trimmed_searching


def _segment(kind, body, value, length, seed):
    if kind == "periodic":
        return (body * (length // len(body) + 1))[:length]
    if kind == "constant":
        return [value] * length
    if kind == "noise":
        rng = random.Random(seed)
        return [rng.randint(1, 6) for _ in range(length)]
    if kind == "break":
        return [100 + value]
    return [RESET]


segments = st.builds(
    _segment,
    st.sampled_from(["periodic", "periodic", "constant", "noise", "break", "reset"]),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=4),
    st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=40, max_value=900)),
    st.integers(min_value=0, max_value=2**16),
)


class TestReferenceOracle:
    """The O(1) locked path reports exactly what updating every period would."""

    @given(
        st.lists(segments, min_size=1, max_size=12),
        st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=64)),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    # after END_LOOP, period 4's run reaches back to the first event
    @example(parts=[[1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 1]], max_period=4, confirm=2)
    def test_event_stream_matches_reference(self, parts, max_period, confirm):
        stream = [event for part in parts for event in part]
        assert_matches_reference(stream, max_period, confirm)

    @pytest.mark.parametrize("max_period,confirm", [(1, 2), (3, 3), (8, 4), (64, 3)])
    def test_trims_while_locked_and_searching(self, max_period, confirm):
        """A fixed stream that trims the history in both states, breaks and re-locks."""
        rng = random.Random(max_period * 10 + confirm)
        body = [1, 2, 1, 3][:max_period]
        bound = 4 * max_period * confirm
        stream = []
        for _ in range(3):
            stream += body * (bound // len(body) + 2)
            stream += [99]
            stream += [rng.randint(1, 1000) for _ in range(bound + 5)]
            stream += [5] * (confirm + 2) + [RESET]
        assert assert_matches_reference(stream, max_period, confirm) == (True, True)
