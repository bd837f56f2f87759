"""Exception types shared across the package."""


class DualFXError(Exception):
    """Base class for all package errors."""


class NormalizationError(DualFXError):
    """Branch masses at a tree node do not sum to one under one of the measures."""


class StructureError(DualFXError):
    """Malformed tree topology (branches from absorbing nodes, missing children, ...)."""


class MeasurabilityError(DualFXError):
    """A stopping rule or event is not measurable on the tree filtration."""


class ClaimError(DualFXError):
    """A claim pair violates the dollar/euro consistency contract."""


class InfinitePrice(DualFXError):
    """An exact expectation puts positive mass on an infinite payoff."""


class InfeasibleError(DualFXError):
    """The superreplication program has no feasible portfolio (never expected)."""


class ConditioningError(DualFXError):
    """Conditioning event has probability zero."""


class UnknownModel(DualFXError):
    """Requested model name is not in the catalog."""


class SchemeUnsupported(DualFXError):
    """Requested simulation scheme is not available for the model."""


class NumericalBlowup(DualFXError):
    """An Euler step, a sampler or a simulated value left the float range."""


class InfiniteContribution(DualFXError):
    """A Monte Carlo functional evaluated to infinity on a sampled path."""


class ConfigError(DualFXError):
    """Invalid experiment configuration."""
