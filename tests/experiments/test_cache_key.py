"""Pinned run-cache keys.

``RunRequest.key()`` addresses every cached run on disk and feeds the
journal ids ``learn`` prints.  A change to its bytes silently orphans
every existing cache entry, so it must come with a deliberate
``CACHE_FORMAT_VERSION`` bump — and with an update of the hex digests
below.  Refactors that claim "no key change" are checked here.
"""

import pytest

from repro.ear.config import EarConfig
from repro.experiments.parallel import CACHE_FORMAT_VERSION, RunRequest
from repro.experiments.resilience import reference_fault_plan
from repro.experiments.runner import standard_configs
from repro.workloads import kernels

PINNED_KEYS = {
    "pinned_monitoring": (
        "67cd9774ca85957b87c699389c80c2a52a8e1ec5bc7b556d481fc74187547528"
    ),
    "me_eufs": "2a54daaf5dea98ccb1004ebc3219379f9517900e075f2ee061828b025ff017b7",
    "faulted": "76f4f6ea33990cd778a9d1753b57f72e6dd2bce6dfd27c6b66696a0cabbf2d71",
}


def _request(name: str) -> RunRequest:
    if name == "pinned_monitoring":
        return RunRequest(
            kernels.dgemm_mkl(),
            EarConfig(policy="monitoring"),
            seed=2,
            scale=0.05,
            pin_cpu_ghz=2.0,
            pin_uncore_ghz=1.8,
        )
    if name == "me_eufs":
        return RunRequest(
            kernels.bt_mz_c_openmp(), standard_configs()["me_eufs"], seed=1, scale=0.02
        )
    return RunRequest(
        kernels.lu_d_mpi(),
        standard_configs()["me"],
        seed=3,
        scale=0.1,
        fault_plan=reference_fault_plan(),
        engine="batched",
    )


def test_cache_format_version():
    assert CACHE_FORMAT_VERSION == 7


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_key_bytes_pinned(name):
    assert _request(name).key() == PINNED_KEYS[name]
