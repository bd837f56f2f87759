"""Monte Carlo simulation of the rate under both measures."""

from .engine import (BLOCK, CrossMeasureResult, Estimate, MCConfig,
                     TerminalBatch, combined_stderr, cross_measure_check,
                     dual_seed, estimate_from_values, euler_absorbed,
                     simulate, z_score)
from .models import DiffusionModel, DualDiffusion, derive_dual_model

__all__ = [
    "BLOCK", "MCConfig", "Estimate", "TerminalBatch",
    "CrossMeasureResult", "DiffusionModel", "DualDiffusion",
    "derive_dual_model", "simulate", "estimate_from_values",
    "euler_absorbed", "cross_measure_check", "combined_stderr", "z_score",
    "dual_seed",
]
