"""Property tests for the engine's RNG draw-order contract.

The contract (documented on ``SimulationEngine.__init__``): the run
generator is consumed by exactly two features — the per-run node-speed
spread (one ``uniform`` at construction) and the per-iteration noise
(one ``normal`` per iteration) — and a feature that is *off* consumes
nothing.  That is what keeps e.g. a ``node_speed_spread=0`` run's noise
stream bit-aligned with a spread-free engine version, and what lets the
batched kernel pre-draw whole phases.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import RunSpec, SimulationEngine
from repro.workloads import kernels


def _state(engine: SimulationEngine):
    return engine._rng.bit_generator.state


def _wl():
    return kernels.bt_mz_c_openmp().scaled_iterations(0.05)


def test_zero_spread_draws_nothing_at_construction():
    eng = SimulationEngine(RunSpec(_wl(), seed=42, node_speed_spread=0.0))
    assert _state(eng) == np.random.default_rng(42).bit_generator.state
    assert (eng._node_slowdown == 1.0).all()


def test_nonzero_spread_draws_exactly_one_uniform_block():
    eng = SimulationEngine(RunSpec(_wl(), seed=42, node_speed_spread=0.1))
    ref = np.random.default_rng(42)
    expected = 1.0 + ref.uniform(0.0, 0.1, size=len(eng.cluster))
    assert (eng._node_slowdown == expected).all()
    assert _state(eng) == ref.bit_generator.state


def test_zero_sigma_run_consumes_no_draws():
    eng = SimulationEngine(RunSpec(_wl(), seed=7, noise_sigma=0.0))
    before = _state(eng)
    eng.run()
    assert _state(eng) == before


def test_zero_sigma_with_spread_consumes_only_the_spread():
    eng = SimulationEngine(
        RunSpec(_wl(), seed=7, noise_sigma=0.0, node_speed_spread=0.05)
    )
    before = _state(eng)  # after the construction-time uniform
    eng.run()
    assert _state(eng) == before


def test_noise_stream_independent_of_spread_setting():
    """Turning the spread off must not shift the noise stream: the first
    normal draw of a spread-free run equals a fresh generator's."""
    eng = SimulationEngine(RunSpec(_wl(), seed=13, noise_sigma=0.01))
    noise = eng._iteration_noise(len(eng.cluster))
    ref = np.exp(np.random.default_rng(13).normal(0.0, 0.01, size=len(eng.cluster)))
    assert (noise == ref).all()


def test_batched_engine_consumes_rng_identically():
    """Both engines must leave the generator in the same final state —
    the block draw ``normal(size=(k, n))`` is bit-equivalent to ``k``
    sequential ``normal(size=n)`` draws."""
    a = SimulationEngine(RunSpec(_wl(), seed=3, engine="scalar"))
    b = SimulationEngine(RunSpec(_wl(), seed=3, engine="batched"))
    a.run()
    b.run()
    assert _state(a) == _state(b)


def test_block_normal_matches_sequential_rows():
    """The numpy property the batched kernel's noise pre-draw rests on."""
    k, n = 17, 5
    block = np.random.default_rng(99).normal(0.0, 0.003, size=(k, n))
    seq_rng = np.random.default_rng(99)
    rows = np.stack([seq_rng.normal(0.0, 0.003, size=n) for _ in range(k)])
    assert (block == rows).all()
