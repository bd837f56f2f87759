"""dualfx: two-measure superreplication pricing for FX rates that may
devalue to zero or explode to infinity.

The package pairs a Monte Carlo pricing engine (classical expectation plus
explosion correction, estimated under the dollar and euro risk-neutral
measures) with an exact rational lattice oracle that verifies every identity
the pricing operator relies on: the change-of-numeraire relation, conditional
Bayes formula, put-call parity, international put-call equivalence, and the
equality between the pricing formula and backward superreplication.
"""

from . import catalog, lattice, physical, pricing
from .errors import (ClaimError, ConditioningError, ConfigError, DualFXError,
                     InfeasibleError, InfiniteContribution, InfinitePrice,
                     MeasurabilityError, NormalizationError, NumericalBlowup,
                     SchemeUnsupported, StructureError, UnknownModel)
from .extended import ExtendedValue
from .sde import (DiffusionModel, DualDiffusion, Estimate, MCConfig,
                  TerminalBatch, cross_measure_check, derive_dual_model,
                  simulate)

__version__ = "0.1.0"

__all__ = [
    "ExtendedValue", "DiffusionModel", "DualDiffusion", "MCConfig",
    "Estimate", "TerminalBatch",
    "derive_dual_model", "simulate", "cross_measure_check",
    "catalog", "lattice", "physical", "pricing",
    "DualFXError", "NormalizationError", "StructureError",
    "MeasurabilityError", "ClaimError", "InfinitePrice", "InfeasibleError",
    "ConditioningError", "UnknownModel", "SchemeUnsupported",
    "NumericalBlowup", "InfiniteContribution", "ConfigError",
    "__version__",
]
