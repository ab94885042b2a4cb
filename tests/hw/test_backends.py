"""Contract suite for the uncore control backends.

Every backend — MSR, legacy sysfs, TPMI — must honour the same
behavioural contract behind :class:`~repro.hw.backends.UncoreBackend`:
limits land on the domains clamped into the silicon range, capability
flags tell the truth about die granularity, ratios round-trip through
pinned limits, accounting integrates under ``advance``, unprivileged
writes are refused, and every landed write emits exactly one
``uncore/limit_write`` event when telemetry is armed (and none — at
zero cost — when it is not).

The MSR backend additionally carries a regression gate: it must be
bit-identical to the direct register path it replaced, including the
socket MSR's ``write_generation`` plan-invalidation counter.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, MsrPermissionError
from repro.experiments.runner import standard_configs
from repro.hw.backends import (
    BACKEND_NAMES,
    MsrBackend,
    SysfsBackend,
    TpmiBackend,
    UncoreBackend,
    create_backend,
)
from repro.hw.msr import MSR_UNCORE_RATIO_LIMIT, UncoreRatioLimit
from repro.hw.node import GRANITE_RAPIDS_NODE, SD530, Node, OperatingPoint
from repro.hw.ufs import UfsInputs
from repro.sim.engine import run_workload
from repro.telemetry.recorder import EventRecorder
from repro.workloads.kernels import bt_mz_c_mpi, bt_mz_c_openmp

_CLASSES = {"msr": MsrBackend, "sysfs": SysfsBackend, "tpmi": TpmiBackend}


def make_node(backend: str) -> Node:
    """A two-die-per-socket node driven by the given backend.

    TPMI gets the real Granite Rapids config; the others reuse SD530
    silicon with two dies so die-granularity claims are testable.
    """
    if backend == "tpmi":
        return Node(GRANITE_RAPIDS_NODE)
    return Node(
        dataclasses.replace(SD530, uncore_backend=backend, dies_per_socket=2)
    )


def busy_op(node: Node) -> OperatingPoint:
    """A fully-busy compute operating point for the node."""
    return OperatingPoint(
        n_active_cores=node.config.n_cores,
        activity=1.0,
        vpi=0.0,
        traffic_gbs=30.0,
        effective_core_ghz=2.4,
        uncore_demand=0.0,
    )


@pytest.fixture(params=BACKEND_NAMES)
def backend_node(request):
    """A fresh node per backend, with its backend alongside."""
    node = make_node(request.param)
    return node, node.uncore_backend


def mid_ratio(node: Node) -> int:
    """An in-range ratio strictly between the silicon bounds."""
    return (node.config.uncore_min_ratio + node.config.uncore_max_ratio) // 2


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_all_names_registered(self):
        assert set(BACKEND_NAMES) == set(_CLASSES)

    def test_create_returns_right_class(self, backend_node):
        node, backend = backend_node
        assert type(backend) is _CLASSES[backend.name]
        assert isinstance(backend, UncoreBackend)
        assert backend.node is node

    def test_unknown_backend_rejected(self):
        node = Node(SD530)
        with pytest.raises(ConfigError):
            create_backend("smbios", node)


# -- enumeration ------------------------------------------------------------


class TestEnumeration:
    def test_domains_cover_every_die(self, backend_node):
        node, backend = backend_node
        expected = tuple(
            (s.socket_id, d)
            for s in node.sockets
            for d in range(len(s.dies))
        )
        assert backend.domains() == expected
        assert len(expected) == node.config.n_sockets * node.config.dies_per_socket

    def test_silicon_range_matches_config(self, backend_node):
        node, backend = backend_node
        assert backend.silicon_range() == UncoreRatioLimit(
            min_ratio=node.config.uncore_min_ratio,
            max_ratio=node.config.uncore_max_ratio,
        )


# -- limit writes -----------------------------------------------------------


class TestLimitWrites:
    def test_unprivileged_write_refused(self, backend_node):
        node, backend = backend_node
        limits = UncoreRatioLimit(min_ratio=mid_ratio(node), max_ratio=mid_ratio(node))
        with pytest.raises(MsrPermissionError):
            backend.write_limits(limits)
        # nothing landed
        for si, d in backend.domains():
            assert backend.read_limits(si, d) == backend.silicon_range()

    def test_in_range_write_round_trips(self, backend_node):
        node, backend = backend_node
        lo, hi = node.config.uncore_min_ratio + 1, node.config.uncore_max_ratio - 1
        limits = UncoreRatioLimit(min_ratio=lo, max_ratio=hi)
        backend.write_limits(limits, privileged=True)
        for si, d in backend.domains():
            assert backend.read_limits(si, d) == limits

    def test_domains_clamped_into_silicon_range(self, backend_node):
        node, backend = backend_node
        wild = UncoreRatioLimit(min_ratio=1, max_ratio=100)
        backend.write_limits(wild, privileged=True)
        for s in node.sockets:
            for dom in s.dies:
                assert dom.hw_min_ratio <= dom.limits.min_ratio
                assert dom.limits.min_ratio <= dom.limits.max_ratio
                assert dom.limits.max_ratio <= dom.hw_max_ratio
                assert dom.limits.min_ratio <= dom.current_ratio <= dom.limits.max_ratio

    def test_die_granular_read_clamped(self, backend_node):
        # the sysfs/TPMI drivers clamp the *stored* value too (the raw
        # MSR keeps any 7-bit pattern and leaves clamping to hardware).
        node, backend = backend_node
        if not backend.die_granular:
            pytest.skip("raw-register backend stores unclamped bits")
        backend.write_limits(
            UncoreRatioLimit(min_ratio=1, max_ratio=100), privileged=True
        )
        for si, d in backend.domains():
            got = backend.read_limits(si, d)
            assert got == backend.silicon_range()

    def test_capability_flags_are_honest(self, backend_node):
        """die_granular=True targets one die; False sweeps the socket."""
        node, backend = backend_node
        r = mid_ratio(node)
        pinned = UncoreRatioLimit(min_ratio=r, max_ratio=r)
        before = backend.read_limits(0, 0)
        backend.write_limits(pinned, privileged=True, socket=0, die=1)
        if backend.die_granular:
            assert backend.read_limits(0, 1) == pinned
            assert backend.read_limits(0, 0) == before  # sibling untouched
        else:
            # MSR 0x620 is package-scoped: the die index is ignored and
            # every die of the socket moves together.
            for d in range(len(node.sockets[0].dies)):
                assert node.sockets[0].dies[d].limits == pinned
        # the untargeted socket never moves either way
        boot = UncoreRatioLimit(
            min_ratio=node.config.uncore_min_ratio,
            max_ratio=node.config.uncore_max_ratio,
        )
        for d in range(len(node.sockets[1].dies)):
            assert backend.read_limits(1, d) == boot

    def test_writable_min_flag(self, backend_node):
        node, backend = backend_node
        assert backend.writable_min  # all three simulated paths allow it
        lo = node.config.uncore_min_ratio + 2
        backend.write_limits(
            UncoreRatioLimit(min_ratio=lo, max_ratio=node.config.uncore_max_ratio),
            privileged=True,
        )
        assert backend.read_limits(0, 0).min_ratio == lo


# -- ratio observation & accounting -----------------------------------------


class TestRatioAndAccounting:
    def test_pinned_limits_pin_the_ratio(self, backend_node):
        node, backend = backend_node
        r = mid_ratio(node)
        backend.write_limits(
            UncoreRatioLimit(min_ratio=r, max_ratio=r), privileged=True
        )
        for si, d in backend.domains():
            assert backend.read_ratio(si, d) == r

    def test_accounting_under_advance(self, backend_node):
        node, backend = backend_node
        r = mid_ratio(node)
        backend.write_limits(
            UncoreRatioLimit(min_ratio=r, max_ratio=r), privileged=True
        )
        node.advance(busy_op(node), 5.0)
        assert node.average_imc_freq_ghz() == pytest.approx(r * 0.1)
        for s in node.sockets:
            for dom in s.dies:
                assert dom.average_freq_ghz() == pytest.approx(r * 0.1)

    def test_plan_invalidation_counter_moves(self, backend_node):
        """Every write must bump a generation the batched kernel sees."""
        node, backend = backend_node

        def tag() -> int:
            return backend.write_generation + sum(
                s.msr.write_generation for s in node.sockets
            )

        before = tag()
        backend.write_limits(backend.silicon_range(), privileged=True)
        assert tag() > before


# -- telemetry --------------------------------------------------------------


class TestTelemetry:
    def test_one_event_per_landed_write(self, backend_node):
        node, backend = backend_node
        rec = EventRecorder(node=node.node_id)
        backend.telemetry = rec
        r = mid_ratio(node)
        backend.write_limits(
            UncoreRatioLimit(min_ratio=r, max_ratio=r), privileged=True
        )
        events = [
            e for e in rec.events
            if e.subsystem == "uncore" and e.kind == "limit_write"
        ]
        # one register write per socket on MSR, one per die otherwise
        expected = (
            len(backend.domains())
            if backend.die_granular
            else len(node.sockets)
        )
        assert len(events) == expected
        for e in events:
            payload = e.payload_dict
            assert payload["backend"] == backend.name
            assert payload["new_min_ratio"] == r
            assert payload["new_max_ratio"] == r
            assert payload["old_min_ratio"] == node.config.uncore_min_ratio
            assert payload["old_max_ratio"] == node.config.uncore_max_ratio
            assert "die" in payload and "socket" in payload

    def test_targeted_write_emits_one_event(self, backend_node):
        node, backend = backend_node
        if not backend.die_granular:
            pytest.skip("no per-die targeting on the MSR path")
        rec = EventRecorder(node=node.node_id)
        backend.telemetry = rec
        backend.write_limits(
            backend.silicon_range(), privileged=True, socket=1, die=1
        )
        assert len(rec.events) == 1
        assert rec.events[0].payload_dict["socket"] == 1
        assert rec.events[0].payload_dict["die"] == 1

    def test_disabled_telemetry_changes_nothing(self, backend_node):
        """The NULL_RECORDER path lands identical state, silently."""
        node, backend = backend_node
        twin = make_node(backend.name)
        rec = EventRecorder(node=0)
        twin.uncore_backend.telemetry = rec
        r = mid_ratio(node)
        limits = UncoreRatioLimit(min_ratio=r, max_ratio=r)
        backend.write_limits(limits, privileged=True)  # NULL_RECORDER
        twin.uncore_backend.write_limits(limits, privileged=True)
        assert rec.events  # armed twin recorded
        for si, d in backend.domains():
            assert backend.read_limits(si, d) == twin.uncore_backend.read_limits(si, d)
            assert backend.read_ratio(si, d) == twin.uncore_backend.read_ratio(si, d)


# -- backend-specific semantics ---------------------------------------------


def _inputs(active: float) -> UfsInputs:
    return UfsInputs(
        fastest_active_ratio=24,
        active_fraction=active,
        vpi=0.0,
        uncore_demand=0.5,
        pinned=False,
    )


class TestUfsFloor:
    def test_only_tpmi_imposes_a_floor(self):
        for name in ("msr", "sysfs"):
            node = make_node(name)
            assert node.uncore_backend.ufs_floor_ratio(_inputs(1.0)) == 0

    def test_elc_floor_shape(self):
        backend = make_node("tpmi").uncore_backend
        hw_max = GRANITE_RAPIDS_NODE.uncore_max_ratio
        # idle: no floor; busy: half the silicon max; in between: ramp
        assert backend.ufs_floor_ratio(_inputs(0.0)) == 0
        assert backend.ufs_floor_ratio(_inputs(0.10)) == 0
        busy_floor = int(round(backend.elc_floor_frac * hw_max))
        assert backend.ufs_floor_ratio(_inputs(0.70)) == busy_floor
        assert backend.ufs_floor_ratio(_inputs(1.0)) == busy_floor
        mid = backend.ufs_floor_ratio(_inputs(0.425))
        assert 0 < mid < busy_floor

    def test_busy_gnr_die_respects_elc_floor(self):
        node = make_node("tpmi")
        backend = node.uncore_backend
        busy_floor = int(round(backend.elc_floor_frac * node.config.uncore_max_ratio))
        node.run_ufs(busy_op(node))
        for si, d in backend.domains():
            assert backend.read_ratio(si, d) >= busy_floor


class TestSysfsSemantics:
    def test_limits_live_on_the_dies(self):
        node = make_node("sysfs")
        backend = node.uncore_backend
        backend.write_limits(
            UncoreRatioLimit(min_ratio=14, max_ratio=20),
            privileged=True,
            socket=0,
            die=1,
        )
        assert backend.read_limits(0, 1) == UncoreRatioLimit(14, 20)
        assert backend.read_limits(0, 1) is node.sockets[0].dies[1].limits
        assert backend.read_limits(0, 0) == backend.silicon_range()
        assert backend.read_limits(0, 0) is node.sockets[0].dies[0].limits

    def test_write_latency_accumulates(self):
        node = make_node("sysfs")
        backend = node.uncore_backend
        assert backend.write_latency_s == 0.0
        backend.write_limits(backend.silicon_range(), privileged=True)
        n_files = 2 * len(backend.domains())  # min + max file per die
        assert backend.write_latency_s == pytest.approx(n_files * 250e-6)


# -- die-granular paths: the dies hold the only copy of the limits ----------


def _silicon_clamp(ratio: int, node: Node) -> int:
    """``ratio`` clamped into the node's silicon range (the median of three)."""
    return sorted((node.config.uncore_min_ratio, ratio, node.config.uncore_max_ratio))[1]


_WRITES = st.lists(
    st.tuples(
        st.integers(0, 40),  # min ratio, below / inside / above silicon
        st.integers(0, 40),  # max ratio
        st.one_of(st.none(), st.integers(0, 1)),  # socket
        st.one_of(st.none(), st.integers(0, 1)),  # die
        st.booleans(),  # privileged
    ),
    max_size=8,
)


class TestDieGranularLimits:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(("sysfs", "tpmi")), writes=_WRITES)
    def test_reads_are_the_dies_own_limits(self, name, writes):
        node = make_node(name)
        backend = node.uncore_backend
        expected = {dom: backend.silicon_range() for dom in backend.domains()}
        landed = 0
        for lo, hi, socket, die, privileged in writes:
            limits = UncoreRatioLimit(min_ratio=lo, max_ratio=hi)
            if privileged:
                backend.write_limits(limits, privileged=True, socket=socket, die=die)
                clamped = UncoreRatioLimit(
                    min_ratio=_silicon_clamp(lo, node),
                    max_ratio=_silicon_clamp(hi, node),
                )
                for s, d in backend.domains():
                    if socket in (None, s) and die in (None, d):
                        expected[(s, d)] = clamped
                        landed += 1
            else:
                ratios = [backend.read_ratio(s, d) for s, d in backend.domains()]
                with pytest.raises(MsrPermissionError):
                    backend.write_limits(limits, socket=socket, die=die)
                assert [backend.read_ratio(s, d) for s, d in backend.domains()] == ratios
            assert backend.write_generation == landed
            for (s, d), want in expected.items():
                assert backend.read_limits(s, d) == want
                assert node.sockets[s].dies[d].limits == want


class TestDieGranularGoldens:
    """Exact values of one ``me_eufs`` run per die-granular path.

    The ``results/`` goldens run MSR nodes only; these pin the sysfs and
    TPMI limit paths bit for bit (scalar engine, half-length runs).
    """

    @staticmethod
    def _run(workload, node_config):
        return run_workload(
            workload.retargeted(node_config).scaled_iterations(0.5),
            ear_config=standard_configs()["me_eufs"],
        )

    def test_sysfs_bt_mz_c(self):
        r = self._run(
            bt_mz_c_openmp(), dataclasses.replace(SD530, uncore_backend="sysfs")
        )
        assert r.dc_energy_j == 23384.30442898208
        assert r.pck_energy_j == 16989.00738410462
        assert r.avg_imc_freq_ghz == 2.0986825407292184
        assert [d.freqs.imc_max_ghz for d in r.decisions] == [
            2.3, 2.2, 2.1, 2.0, 1.9, 1.8, 1.9,
        ]

    def test_granite_rapids_bt_mz_c_mpi(self):
        r = self._run(bt_mz_c_mpi(), GRANITE_RAPIDS_NODE)
        assert r.dc_energy_j == 88343.83469428598
        assert r.pck_energy_j == 58736.787696302956
        assert r.avg_imc_freq_ghz == 2.2120629652752792
        assert [d.freqs.imc_max_ghz for d in r.decisions] == [
            2.4, 2.3, 2.2, 2.1, 2.0, 1.9,
        ]


# -- MSR regression: backend == direct register path ------------------------


class TestMsrRegression:
    def test_backend_matches_direct_register_writes(self):
        via_backend, direct = Node(SD530), Node(SD530)
        for limits in (
            UncoreRatioLimit(min_ratio=14, max_ratio=20),
            UncoreRatioLimit(min_ratio=12, max_ratio=12),
            UncoreRatioLimit(min_ratio=1, max_ratio=100),  # raw bits kept
        ):
            via_backend.set_uncore_limits(limits, privileged=True)
            for s in direct.sockets:
                s.msr.write_uncore_limits(limits, privileged=True)
            for sa, sb in zip(via_backend.sockets, direct.sockets):
                assert sa.msr.read(MSR_UNCORE_RATIO_LIMIT) == sb.msr.read(
                    MSR_UNCORE_RATIO_LIMIT
                )
                assert sa.msr.read_uncore_limits() == sb.msr.read_uncore_limits()
                assert sa.dies[0].limits == sb.dies[0].limits
                assert sa.dies[0].current_ratio == sb.dies[0].current_ratio
                assert sa.msr.write_generation == sb.msr.write_generation

    def test_msr_backend_never_bumps_its_own_generation(self):
        node = Node(SD530)
        node.set_uncore_limits(
            UncoreRatioLimit(min_ratio=15, max_ratio=22), privileged=True
        )
        # the socket MSRs already count writes; double-counting would
        # needlessly invalidate batched plans.
        assert node.uncore_backend.write_generation == 0
        assert all(s.msr.write_generation > 0 for s in node.sockets)
