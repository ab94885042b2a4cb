"""The batched kernel's scalar-equivalence gate.

Every case runs the same job once under each engine and requires:

* ``time_s`` and every per-node observable (energy, time, frequencies,
  CPI, GB/s) within **1e-9 relative** — the batched kernel reassociates
  floating-point sums but must not change physics;
* identical signature and decision *counts* for EAR runs — iteration
  times are drawn and computed bit-identically, so measurement windows
  must close on the same iterations and the policy must fire the same
  number of times.

If one of these ever fails, the batched kernel is wrong — the scalar
engine is the reference implementation, by construction.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ear.config import EarConfig
from repro.hw.node import GRANITE_RAPIDS_NODE
from repro.sim.engine import RunSpec, SimulationEngine, run_workload
from repro.sim.faults import FaultPlan
from repro.workloads import applications, kernels

REL_TOL = 1e-9

_NODE_FIELDS = (
    "dc_energy_j",
    "pck_energy_j",
    "seconds",
    "avg_cpu_freq_ghz",
    "avg_imc_freq_ghz",
    "cpi",
    "gbs",
)


def assert_equivalent(scalar, batched, *, tol: float = REL_TOL) -> None:
    """The gate: batched result within ``tol`` relative of scalar."""
    assert batched.time_s == pytest.approx(scalar.time_s, rel=tol)
    assert len(batched.nodes) == len(scalar.nodes)
    for ns, nb in zip(scalar.nodes, batched.nodes):
        assert nb.node_id == ns.node_id
        for name in _NODE_FIELDS:
            vs, vb = getattr(ns, name), getattr(nb, name)
            assert vb == pytest.approx(vs, rel=tol, abs=1e-30), (
                f"node {ns.node_id} {name}: scalar {vs!r} vs batched {vb!r}"
            )
    assert len(batched.signatures) == len(scalar.signatures)
    assert len(batched.decisions) == len(scalar.decisions)


def both(workload, **kwargs):
    """Run the workload under both engines with identical settings."""
    scalar = run_workload(workload, engine="scalar", **kwargs)
    batched = run_workload(workload, engine="batched", **kwargs)
    return scalar, batched


# -- clean path (the vectorized kernel) -------------------------------------


def test_clean_multi_node_run_matches():
    wl = applications.gromacs_lignocellulose().scaled_iterations(0.1)
    assert_equivalent(*both(wl, seed=1))


def test_clean_run_iteration_times_bit_identical():
    # time_s is a sum of identical walls in identical order: exact.
    wl = applications.bqcd().scaled_iterations(0.05)
    scalar, batched = both(wl, seed=3)
    assert batched.time_s == scalar.time_s


def test_multi_phase_workload_matches():
    wl = applications.bt_mz_d().scaled_iterations(0.1)
    assert_equivalent(*both(wl, seed=2))


def test_zero_noise_matches():
    wl = kernels.sp_mz_c_openmp().scaled_iterations(0.1)
    assert_equivalent(*both(wl, seed=4, noise_sigma=0.0))


def test_node_speed_spread_matches():
    wl = applications.hpcg().scaled_iterations(0.1)
    assert_equivalent(*both(wl, seed=5, node_speed_spread=0.08))


def test_frequency_trace_matches():
    wl = kernels.bt_mz_c_openmp().scaled_iterations(0.1)
    scalar, batched = both(wl, seed=6, telemetry=True)
    assert_equivalent(scalar, batched)

    def samples(result):
        return [
            e for e in result.events
            if e.subsystem == "engine" and e.kind == "freq_sample"
        ]

    ss_all, sb_all = samples(scalar), samples(batched)
    assert ss_all and len(sb_all) == len(ss_all)
    for ss, sb in zip(ss_all, sb_all):
        assert sb.node == ss.node
        assert sb.time_s == pytest.approx(ss.time_s, rel=REL_TOL)
        assert sb.payload == ss.payload


# -- pinned frequencies (the learning-phase configuration) -----------------


def test_pinned_frequencies_match():
    wl = kernels.stream_triad().scaled_iterations(0.1)
    assert_equivalent(*both(wl, seed=7, pin_cpu_ghz=2.0, pin_uncore_ghz=1.8))


def test_pinned_observe_only_ear_matches():
    wl = kernels.dgemm_mkl().scaled_iterations(0.2)
    cfg = EarConfig(policy="monitoring")
    assert_equivalent(*both(wl, seed=8, ear_config=cfg, pin_cpu_ghz=2.2))


# -- EAR policies (the committed kernel) ------------------------------------


def test_default_policy_matches():
    wl = applications.gromacs_lignocellulose().scaled_iterations(0.2)
    scalar, batched = both(wl, seed=1, ear_config=EarConfig())
    assert_equivalent(scalar, batched)
    assert len(scalar.decisions) > 0  # the policy actually fired


def test_policy_decisions_identical():
    wl = applications.pop().scaled_iterations(0.2)
    scalar, batched = both(wl, seed=2, ear_config=EarConfig())
    for ds, db in zip(scalar.decisions, batched.decisions):
        # frequencies chosen and state machine path must match exactly;
        # signature floats may differ by reassociation ulps.
        assert db.freqs == ds.freqs
        assert db.earl_state == ds.earl_state
        assert db.policy_state == ds.policy_state
        assert db.at_s == pytest.approx(ds.at_s, rel=REL_TOL)


# -- non-MSR uncore backends ------------------------------------------------
#
# The batched kernel's plans cache flattened per-die uncore ratios and
# invalidate on the backend's write_generation; sysfs and TPMI exercise
# both (multi-die domains, non-MSR write counting, the TPMI ELC floor).


def test_sysfs_backend_run_matches():
    wl = applications.bqcd().scaled_iterations(0.1)
    wl = wl.retargeted(
        dataclasses.replace(
            wl.node_config, uncore_backend="sysfs", dies_per_socket=2
        )
    )
    assert_equivalent(*both(wl, seed=21))


def test_sysfs_backend_ear_run_matches():
    wl = applications.pop().scaled_iterations(0.2)
    wl = wl.retargeted(
        dataclasses.replace(wl.node_config, uncore_backend="sysfs")
    )
    assert_equivalent(*both(wl, seed=22, ear_config=EarConfig()))


def test_tpmi_backend_run_matches():
    wl = applications.hpcg().scaled_iterations(0.1)
    assert_equivalent(*both(wl.retargeted(GRANITE_RAPIDS_NODE), seed=23))


def test_tpmi_backend_ear_run_matches():
    wl = applications.gromacs_lignocellulose().scaled_iterations(0.2)
    scalar, batched = both(
        wl.retargeted(GRANITE_RAPIDS_NODE), seed=24, ear_config=EarConfig()
    )
    assert_equivalent(scalar, batched)


def test_tpmi_pinned_frequencies_match():
    wl = kernels.stream_triad().scaled_iterations(0.1)
    wl = wl.retargeted(GRANITE_RAPIDS_NODE)
    assert_equivalent(*both(wl, seed=25, pin_cpu_ghz=2.0, pin_uncore_ghz=1.8))


# -- fault injection --------------------------------------------------------

_FAULTY = FaultPlan(
    seed=11,
    meter_stall_rate=0.02,
    meter_dropout_rate=0.01,
    counter_corruption_rate=0.02,
    msr_failure_rate=0.05,
    rapl_wrap_rate=0.02,
    throttle_rate=0.03,
)


def test_faulted_run_matches():
    wl = applications.bt_mz_d().scaled_iterations(0.15)
    assert_equivalent(*both(wl, seed=3, fault_plan=_FAULTY))


def test_faulted_ear_run_matches():
    wl = applications.bt_mz_d().scaled_iterations(0.15)
    assert_equivalent(*both(wl, seed=3, ear_config=EarConfig(), fault_plan=_FAULTY))


# -- GPU workloads ----------------------------------------------------------


def test_gpu_offload_matches():
    wl = kernels.bt_cuda_d().scaled_iterations(0.2)
    assert_equivalent(*both(wl, seed=4))


def test_gpu_offload_with_ear_matches():
    wl = kernels.lu_cuda_d().scaled_iterations(0.2)
    assert_equivalent(*both(wl, seed=4, ear_config=EarConfig()))


# -- RAPL power cap (the trickiest branch: _power_capped_ghz) ---------------


def _capped_run(workload, engine: str, cap_w: float, **kwargs):
    eng = SimulationEngine(RunSpec(workload, engine=engine, **kwargs))
    for node in eng.cluster:
        node.set_pkg_power_limit(cap_w, privileged=True)
    return eng.run()


def test_power_capped_run_matches():
    wl = kernels.sp_mz_c_openmp().scaled_iterations(0.2)
    scalar = _capped_run(wl, "scalar", 120.0, seed=5)
    batched = _capped_run(wl, "batched", 120.0, seed=5)
    assert_equivalent(scalar, batched)
    # the cap actually bit: the sustained clock fell below nominal
    uncapped = run_workload(wl, seed=5, engine="scalar")
    assert scalar.time_s > uncapped.time_s


def test_power_capped_ear_run_matches():
    wl = kernels.sp_mz_c_openmp().scaled_iterations(0.25)
    scalar = _capped_run(wl, "scalar", 120.0, seed=6, ear_config=EarConfig())
    batched = _capped_run(wl, "batched", 120.0, seed=6, ear_config=EarConfig())
    assert_equivalent(scalar, batched)


# -- telemetry --------------------------------------------------------------


def test_telemetry_run_matches():
    wl = applications.gromacs_ion_channel().scaled_iterations(0.15)
    scalar, batched = both(wl, seed=7, ear_config=EarConfig(), telemetry=True)
    assert_equivalent(scalar, batched)
    for ns, nb in zip(scalar.nodes, batched.nodes):
        assert len(nb.telemetry.events) == len(ns.telemetry.events)


# -- engine selection plumbing ----------------------------------------------


def test_unknown_engine_rejected():
    wl = kernels.bt_mz_c_openmp().scaled_iterations(0.05)
    with pytest.raises(Exception):
        SimulationEngine(RunSpec(wl, engine="simd"))


def test_default_engine_is_scalar():
    wl = kernels.bt_mz_c_openmp().scaled_iterations(0.05)
    assert SimulationEngine(RunSpec(wl)).spec.engine == "scalar"
