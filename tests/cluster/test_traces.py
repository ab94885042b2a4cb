"""Synthetic trace generation: determinism, burst shape, validation."""

import pytest

from repro.cluster.traces import TraceConfig, generate_trace, trace_workload_mix
from repro.errors import ConfigError


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(TraceConfig(n_jobs=20, seed=7))
        b = generate_trace(TraceConfig(n_jobs=20, seed=7))
        assert [(j.submit_s, j.workload.name, j.seed) for j in a] == [
            (j.submit_s, j.workload.name, j.seed) for j in b
        ]

    def test_different_seed_different_trace(self):
        a = generate_trace(TraceConfig(n_jobs=20, seed=7))
        b = generate_trace(TraceConfig(n_jobs=20, seed=8))
        assert [(j.submit_s, j.seed) for j in a] != [(j.submit_s, j.seed) for j in b]


class TestShape:
    def test_burst_arrives_at_time_zero(self):
        trace = generate_trace(TraceConfig(n_jobs=8, seed=0, burst_fraction=0.5))
        assert [j.submit_s for j in trace[:4]] == [0.0] * 4
        assert all(j.submit_s > 0 for j in trace[4:])

    def test_arrivals_are_nondecreasing(self):
        trace = generate_trace(TraceConfig(n_jobs=30, seed=3))
        times = [j.submit_s for j in trace]
        assert times == sorted(times)

    def test_indices_sequential(self):
        trace = generate_trace(TraceConfig(n_jobs=6, seed=0))
        assert [j.index for j in trace] == list(range(6))

    def test_estimate_carries_margin(self):
        trace = generate_trace(TraceConfig(n_jobs=5, seed=0, est_margin=1.5))
        for job in trace:
            assert job.est_time_s == pytest.approx(
                job.workload.total_ref_time_s * 1.5
            )

    def test_scale_shrinks_workloads(self):
        full = generate_trace(TraceConfig(n_jobs=5, seed=0))
        half = generate_trace(TraceConfig(n_jobs=5, seed=0, scale=0.5))
        for f, h in zip(full, half):
            assert h.workload.total_ref_time_s < f.workload.total_ref_time_s

    def test_jobs_drawn_from_mix(self):
        names = {w.name for w, _ in trace_workload_mix()}
        trace = generate_trace(TraceConfig(n_jobs=40, seed=1))
        assert {j.workload.name for j in trace} <= names
        # a 40-job trace should exercise more than one workload
        assert len({j.workload.name for j in trace}) > 1


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": 0},
            {"mean_interarrival_s": 0.0},
            {"burst_fraction": -0.1},
            {"burst_fraction": 1.1},
            {"scale": 0.0},
            {"est_margin": 0.9},
            {"mean_interarrival_s": float("nan")},
            {"mean_interarrival_s": float("inf")},
            {"scale": float("nan")},
            {"scale": float("inf")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TraceConfig(**kwargs)

    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            generate_trace(TraceConfig(n_jobs=2), workloads=())

    def test_nonpositive_weight_rejected(self):
        (wl, _), *_ = trace_workload_mix()
        with pytest.raises(ConfigError):
            generate_trace(TraceConfig(n_jobs=2), workloads=((wl, 0.0),))
