"""dualfx: two-measure superreplication pricing for FX rates that may
devalue to zero or explode to infinity.

The package pairs a Monte Carlo pricing engine (classical expectation plus
explosion correction, estimated under the dollar and euro risk-neutral
measures) with an exact rational lattice oracle that verifies every identity
the pricing operator relies on: the change-of-numeraire relation, conditional
Bayes formula, put-call parity, international put-call equivalence, and the
equality between the pricing formula and backward superreplication.

Each public name has one address.  The package root holds the error classes
only, so `import dualfx` loads nothing else.  The Monte Carlo models, config,
simulation and estimates are in `dualfx.sde`, the engine's building blocks in
`dualfx.sde.engine`, the claims and the Monte Carlo pricing operator in
`dualfx.pricing`, the exact lattice in `dualfx.lattice`, the named models in
`dualfx.catalog`, the dominating measure in `dualfx.physical`, and
`ExtendedValue`, a lattice node's state, in `dualfx.lattice.tree`.  The
payoff table and the definition of `MCConfig`, which both halves share, are
in `dualfx.inputs`; it loads no numpy, and neither do `dualfx.lattice` and
`dualfx.physical`.
"""

from .errors import (ClaimError, ConditioningError, ConfigError, DualFXError,
                     InfeasibleError, InfiniteContribution, InfinitePrice,
                     MeasurabilityError, NormalizationError, NumericalBlowup,
                     SchemeUnsupported, StructureError, UnknownModel)

__version__ = "0.1.0"

__all__ = [
    "DualFXError", "NormalizationError", "StructureError",
    "MeasurabilityError", "ClaimError", "InfinitePrice", "InfeasibleError",
    "ConditioningError", "UnknownModel", "SchemeUnsupported",
    "NumericalBlowup", "InfiniteContribution", "ConfigError",
    "__version__",
]
