"""EAR energy/performance projection models.

``train_coefficients`` runs the per-node-type learning phase;
``DefaultModel`` is the 2020 EAR projection; ``Avx512Model`` is the
paper's new VPI-weighted model; ``make_model`` picks one from an
:class:`repro.ear.config.EarConfig`, sourcing the coefficient table via
:func:`resolve_coefficients` (fitted file on disk, or the in-process
analytic fallback).
"""

from __future__ import annotations

import pathlib

from ...errors import ModelError
from ...hw.node import NodeConfig
from ..config import EarConfig
from .avx512 import Avx512Model
from .coefficients import (
    CoefficientTable,
    PairCoefficients,
    PairQuality,
    TableQuality,
    clear_cache,
    fit_pair,
    train_coefficients,
)
from .default_model import DefaultModel, EnergyModel, Projection
from .store import (
    DEFAULT_COEFFICIENTS_DIR,
    FORMAT_VERSION,
    coefficients_file,
    load_coefficients,
    node_slug,
    save_coefficients,
)
from .training import steady_state_signature

__all__ = [
    "DEFAULT_COEFFICIENTS_DIR",
    "FORMAT_VERSION",
    "coefficients_file",
    "load_coefficients",
    "node_slug",
    "save_coefficients",
    "Avx512Model",
    "CoefficientTable",
    "PairCoefficients",
    "PairQuality",
    "TableQuality",
    "DefaultModel",
    "EnergyModel",
    "Projection",
    "fit_pair",
    "train_coefficients",
    "clear_cache",
    "steady_state_signature",
    "resolve_coefficients",
    "make_model",
]


def _check_compatible(table: CoefficientTable, node_config: NodeConfig, origin) -> None:
    freqs = tuple(node_config.pstates.frequencies_ghz)
    if tuple(table.pstate_freqs_ghz) != freqs:
        raise ModelError(
            f"{origin}: coefficient table was fitted for P-states "
            f"{table.pstate_freqs_ghz} but node type {node_config.name!r} "
            f"has {freqs}; re-run the learning phase for this node type"
        )


def resolve_coefficients(
    node_config: NodeConfig, config: EarConfig
) -> CoefficientTable:
    """Pick the coefficient table for a node type.

    Resolution order, driven by ``config.coefficients_path``:

    1. ``None`` — the in-process analytic learning phase
       (:func:`train_coefficients`), bit-identical to the behaviour
       before fitted tables existed.
    2. a directory — prefer the backend-qualified
       ``<dir>/<node-slug>.<backend>.json`` (what a campaign for a
       non-MSR node type writes), then plain ``<dir>/<node-slug>.json``
       (the MSR-era spelling), otherwise fall back to the analytic
       table (a campaign may have fitted only some node types).
    3. a file — must load; a missing or corrupt explicit file raises
       :class:`~repro.errors.ModelError` instead of silently projecting
       with different numbers than the caller asked for.

    Any loaded table must match the node's P-state frequencies exactly.
    """
    source = config.coefficients_path
    if source is None:
        return train_coefficients(node_config)
    path = pathlib.Path(source)
    if path.is_dir():
        qualified = coefficients_file(
            path, node_config.name, backend=node_config.uncore_backend
        )
        candidate = qualified if qualified.exists() else coefficients_file(
            path, node_config.name
        )
        if not candidate.exists():
            return train_coefficients(node_config)
        table = load_coefficients(candidate)
        _check_compatible(table, node_config, candidate)
        return table
    table = load_coefficients(path)
    _check_compatible(table, node_config, path)
    return table


def make_model(node_config: NodeConfig, config: EarConfig) -> EnergyModel:
    """Build the configured projection model for a node type."""
    table = resolve_coefficients(node_config, config)
    if config.use_avx512_model:
        return Avx512Model(table, node_config.pstates)
    return DefaultModel(table, node_config.pstates)
