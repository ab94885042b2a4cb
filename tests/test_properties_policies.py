"""Property-based tests on the policy and controller layers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ear.config import EarConfig
from repro.ear.models import make_model
from repro.ear.policies import MinEnergyPolicy, PolicyContext, PolicyState
from repro.ear.signature import Signature
from repro.hw.msr import RAPL_POWER_UNIT_W, UncoreRatioLimit
from repro.hw.node import SD530, Node
from repro.hw.ufs import UfsController, UfsInputs

# -- strategies ---------------------------------------------------------------

signatures = st.builds(
    Signature,
    iteration_time_s=st.floats(min_value=0.05, max_value=5.0),
    dc_power_w=st.floats(min_value=120.0, max_value=450.0),
    cpi=st.floats(min_value=0.3, max_value=3.5),
    tpi=st.floats(min_value=0.0, max_value=0.1),
    gbs=st.floats(min_value=0.0, max_value=200.0),
    vpi=st.sampled_from([0.0, 0.3, 1.0]),
    avg_cpu_freq_ghz=st.sampled_from([2.4, 2.2, 2.0, 1.7, 1.2]),
    avg_imc_freq_ghz=st.floats(min_value=1.2, max_value=2.4),
)

ufs_inputs = st.builds(
    UfsInputs,
    fastest_active_ratio=st.integers(min_value=0, max_value=28),
    active_fraction=st.floats(min_value=0.0, max_value=1.0),
    vpi=st.floats(min_value=0.0, max_value=1.0),
    uncore_demand=st.floats(min_value=0.0, max_value=1.0),
    pinned=st.booleans(),
    epb=st.integers(min_value=0, max_value=15),
    follow_factor=st.one_of(st.none(), st.floats(min_value=0.3, max_value=1.2)),
)


def make_policy(**cfg):
    config = EarConfig(**cfg)
    ctx = PolicyContext(
        config=config,
        pstates=SD530.pstates,
        model=make_model(SD530, config),
        imc_max_ghz=2.4,
        imc_min_ghz=1.2,
    )
    return MinEnergyPolicy(ctx)


class TestUfsControllerProperties:
    @given(
        ufs_inputs,
        st.integers(min_value=12, max_value=24),
        st.integers(min_value=12, max_value=24),
    )
    @settings(max_examples=200)
    def test_target_always_within_msr_limits(self, inputs, a, b):
        lo, hi = min(a, b), max(a, b)
        ratio = UfsController().target_ratio(inputs, msr_min=lo, msr_max=hi)
        assert lo <= ratio <= hi

    @given(ufs_inputs)
    @settings(max_examples=100)
    def test_inverted_limits_honour_max_field(self, inputs):
        ratio = UfsController().target_ratio(inputs, msr_min=30, msr_max=18)
        assert ratio <= 18

    @given(ufs_inputs, st.integers(min_value=13, max_value=24))
    @settings(max_examples=100)
    def test_monotone_in_msr_max(self, inputs, hi):
        ctl = UfsController()
        wide = ctl.target_ratio(inputs, msr_min=12, msr_max=hi)
        narrow = ctl.target_ratio(inputs, msr_min=12, msr_max=hi - 1)
        assert narrow <= wide


class TestPolicyProperties:
    @given(signatures)
    @settings(max_examples=60, deadline=None)
    def test_decision_always_within_hardware_ranges(self, sig):
        policy = make_policy()
        state, freqs = policy.node_policy(sig)
        assert state in (PolicyState.READY, PolicyState.CONTINUE)
        assert 1.0 <= freqs.cpu_ghz <= 2.4
        assert 1.2 - 1e-9 <= freqs.imc_max_ghz <= 2.4 + 1e-9
        assert freqs.imc_min_ghz <= freqs.imc_max_ghz + 1e-9

    @given(signatures)
    @settings(max_examples=40, deadline=None)
    def test_me_never_selects_above_default(self, sig):
        """min_energy never overclocks: the default is its ceiling."""
        policy = make_policy(use_explicit_ufs=False)
        _, freqs = policy.node_policy(sig)
        assert freqs.cpu_ghz <= 2.4 + 1e-9

    @given(signatures, st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_eargm_offset_caps_selection(self, sig, offset):
        policy = make_policy(use_explicit_ufs=False, default_pstate_offset=offset)
        _, freqs = policy.node_policy(sig)
        cap = SD530.pstates.freq_of(SD530.pstates.nominal_pstate + offset)
        assert freqs.cpu_ghz <= cap + 1e-9

    @given(signatures)
    @settings(max_examples=40, deadline=None)
    def test_descent_sequence_is_monotone_until_ready(self, sig):
        """Feeding the same signature repeatedly: the uncore ceiling
        must descend strictly until READY, then stop changing."""
        policy = make_policy()
        state, freqs = policy.node_policy(sig)
        ceilings = [freqs.imc_max_ghz]
        for _ in range(25):
            if state is PolicyState.READY:
                break
            state, freqs = policy.node_policy(sig)
            ceilings.append(freqs.imc_max_ghz)
        assert state is PolicyState.READY
        descending = ceilings[:-1] if len(ceilings) > 1 else ceilings
        assert all(b < a + 1e-9 for a, b in zip(descending, descending[1:]))


class TestMsrProperties:
    @given(st.floats(min_value=RAPL_POWER_UNIT_W, max_value=4000.0))
    @settings(max_examples=100)
    def test_power_limit_roundtrip_within_unit(self, watts):
        node = Node(SD530)
        node.set_pkg_power_limit(watts, privileged=True)
        got = node.sockets[0].msr.read_pkg_power_limit_w()
        assert got == pytest.approx(watts, abs=RAPL_POWER_UNIT_W / 2 + 1e-9)

    @given(
        st.integers(min_value=12, max_value=24),
        st.integers(min_value=12, max_value=24),
    )
    @settings(max_examples=100)
    def test_uncore_limit_write_always_clamps_current(self, mn, mx):
        node = Node(SD530)
        node.set_uncore_limits(
            UncoreRatioLimit(min_ratio=mn, max_ratio=mx), privileged=True
        )
        current = node.sockets[0].dies[0].current_ratio
        assert min(mn, mx) <= current <= mx
