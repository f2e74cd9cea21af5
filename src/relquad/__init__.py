"""Reliability-first adaptive quadrature with explicit interpolant representations."""

from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.engine import EngineConfig, QuadResult, Status

__all__ = [
    "QuadResult",
    "Status",
    "int_naive",
    "int_refined",
    "int_simpson_baseline",
    "divergence_ratio_probe",
    "NaiveConfig",
    "RefinedConfig",
    "EngineConfig",
]
