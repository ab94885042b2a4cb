"""Discrete-event simulation engine: workloads on clusters, with EARL."""

from ..hw.counters import CounterBank, CounterSnapshot
from .engine import DEFAULT_NOISE_SIGMA, SimulationEngine, run_workload
from .faults import FaultInjector, FaultPlan, HealthMonitor, NodeHealth
from .result import NodeResult, RunResult

__all__ = [
    "CounterBank",
    "CounterSnapshot",
    "SimulationEngine",
    "run_workload",
    "DEFAULT_NOISE_SIGMA",
    "FaultInjector",
    "FaultPlan",
    "HealthMonitor",
    "NodeHealth",
    "NodeResult",
    "RunResult",
]
