"""Monte Carlo simulation of the rate under both measures: the models, the
config, the simulation and its estimates.  The engine's building blocks (the
Euler kernel, the estimator, its z-score, the dual seed) are in `.engine`."""

from .engine import (BLOCK, CrossMeasureResult, Estimate, MCConfig,
                     TerminalBatch, cross_measure_check, simulate)
from .models import DiffusionModel, derive_dual_model

__all__ = [
    "BLOCK", "MCConfig", "Estimate", "TerminalBatch",
    "CrossMeasureResult", "DiffusionModel", "derive_dual_model",
    "simulate", "cross_measure_check",
]
