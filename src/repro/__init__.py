"""repro: reproduction of *Explicit uncore frequency scaling for energy
optimisation policies with EAR in Intel architectures* (CLUSTER 2021).

The package implements the full EAR stack -- DynAIS loop detection,
signatures, trained energy models, the policy plugin API and the
``min_energy_to_solution`` policy with explicit UFS -- on top of a
calibrated simulated Skylake-SP cluster (MSRs, hardware UFS control
loop, RAPL/Node Manager sensors, DC power model).

Quick start::

    from repro import EarConfig, run_workload
    from repro.workloads import bt_mz_c_openmp

    wl = bt_mz_c_openmp()
    baseline = run_workload(wl, ear_config=None, seed=1)        # no policy
    me_eufs = run_workload(wl, ear_config=EarConfig(), seed=1)  # ME + eUFS
    saving = 1 - me_eufs.dc_energy_j / baseline.dc_energy_j
"""

from .ear import (
    AccountingDB,
    Avx512Model,
    DefaultModel,
    Dynais,
    EarConfig,
    Eard,
    Eargm,
    EargmConfig,
    Earl,
    MinEnergyPolicy,
    MinTimePolicy,
    NodeFreqs,
    PolicyPlugin,
    PolicyState,
    Signature,
    available_policies,
    create_policy,
    make_model,
    register_policy,
    steady_state_signature,
    train_coefficients,
)
from .errors import (
    ConfigError,
    EarError,
    ExperimentError,
    HardwareError,
    ModelError,
    MsrError,
    PolicyError,
    ReproError,
    SignatureError,
)
from .hw import GPU_NODE, SD530, Cluster, Node, NodeConfig
from .sim import RunResult, RunSpec, SimulationEngine, run_workload
from .workloads import PhaseProfile, Workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # EAR framework
    "EarConfig",
    "Earl",
    "Eard",
    "Eargm",
    "EargmConfig",
    "AccountingDB",
    "Dynais",
    "Signature",
    "Avx512Model",
    "DefaultModel",
    "make_model",
    "train_coefficients",
    "steady_state_signature",
    "MinEnergyPolicy",
    "MinTimePolicy",
    "NodeFreqs",
    "PolicyPlugin",
    "PolicyState",
    "available_policies",
    "create_policy",
    "register_policy",
    # hardware
    "SD530",
    "GPU_NODE",
    "Node",
    "NodeConfig",
    "Cluster",
    # simulation
    "RunSpec",
    "SimulationEngine",
    "run_workload",
    "RunResult",
    # workloads
    "Workload",
    "PhaseProfile",
    # errors
    "ReproError",
    "HardwareError",
    "MsrError",
    "EarError",
    "PolicyError",
    "ModelError",
    "SignatureError",
    "ConfigError",
    "ExperimentError",
]
