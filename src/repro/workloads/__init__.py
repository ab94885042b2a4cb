"""Workload profiles: the paper's kernels and applications, plus a
parametric generator for model training and ablations.

Real applications are replaced by phase-structured profiles anchored at
the paper's own measured characteristics (Tables II and V); see
DESIGN.md for the substitution rationale.
"""

from .app import Workload
from .applications import (
    afid,
    bqcd,
    bt_mz_d,
    dumses,
    gromacs_ion_channel,
    gromacs_lignocellulose,
    hpcg,
    mpi_applications,
    pop,
)
from .generator import (
    alternating_phases_workload,
    communication_workload,
    synthetic_profile,
    synthetic_workload,
    training_corpus,
)
from .kernels import (
    bt_cuda_d,
    bt_mz_c_mpi,
    bt_mz_c_openmp,
    dgemm_mkl,
    lu_cuda_d,
    lu_d_mpi,
    single_node_kernels,
    sp_mz_c_openmp,
)
from .mpi_trace import MpiCall, allreduce_pattern, event, pencil_pattern, stencil_pattern
from .phase import CACHE_LINE_BYTES, IterationCounters, PhaseProfile


def paper_workloads() -> list[Workload]:
    """Every workload the paper measures: the single-node kernels, the
    two MPI kernels and the MPI applications, in that order."""
    return [*single_node_kernels(), bt_mz_c_mpi(), lu_d_mpi(), *mpi_applications()]


__all__ = [
    "Workload",
    "PhaseProfile",
    "IterationCounters",
    "CACHE_LINE_BYTES",
    "MpiCall",
    "event",
    "stencil_pattern",
    "allreduce_pattern",
    "pencil_pattern",
    "synthetic_profile",
    "synthetic_workload",
    "training_corpus",
    "communication_workload",
    "alternating_phases_workload",
    "bt_mz_c_openmp",
    "sp_mz_c_openmp",
    "bt_cuda_d",
    "lu_cuda_d",
    "dgemm_mkl",
    "bt_mz_c_mpi",
    "lu_d_mpi",
    "single_node_kernels",
    "bqcd",
    "bt_mz_d",
    "gromacs_ion_channel",
    "gromacs_lignocellulose",
    "hpcg",
    "pop",
    "dumses",
    "afid",
    "mpi_applications",
    "paper_workloads",
]
