"""What a claim pays and what a Monte Carlo setting may be, defined once and
without numpy for both halves: `dualfx.pricing` reads the payoff table on
float arrays, the exact lattice on ints and Fractions."""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ConfigError, SchemeUnsupported

# a table argument of any other type is an array, so numpy is loaded: look it
# up; exact types, as an ABC such as Fraction is slow to refuse an array
_SCALARS = (int, Fraction, float)


def _pos(v):
    """Positive part, on numpy float arrays and on scalars (ints, Fractions)."""
    return (max(v, 0) if type(v) in _SCALARS
            else sys.modules["numpy"].maximum(v, 0.0))


def _const(x, c):
    """The constant c shaped like x: a float array on arrays, c on scalars."""
    return (c if type(x) in _SCALARS
            else sys.modules["numpy"].full_like(x, c))


@dataclass(frozen=True)
class Payoff:
    """One claim kind, written once for float arrays, Fractions and integers:
    `dollar(x, k, u=1)` is the dollar leg on [0, inf), homogeneous of degree
    2 in (x, k, u): at a rate n/d and a strike p/q, `dollar(n*q, p*d, d*q)`
    is the integer (d*q)**2 times its value.  `euro(x, k)` is the euro leg on
    (0, inf), dollar / x there, and `euro_at_explosion(k)` the euro value at
    explosion, math.inf for an infinite payoff.  The dollar value at
    explosion is inf times the euro value there, under inf * 0 = 0."""

    dollar: Callable
    euro: Callable
    euro_at_explosion: Callable
    takes_strike: bool = True


PAYOFFS: dict[str, Payoff] = {
    "euro_forward": Payoff(lambda x, k, u=1: u * x, lambda x, k: _const(x, 1),
                           lambda k: 1, takes_strike=False),
    "call": Payoff(lambda x, k, u=1: u * _pos(x - k),
                   lambda x, k: _pos(1 - k / x), lambda k: 1),
    "put": Payoff(lambda x, k, u=1: u * _pos(k - x),
                  lambda x, k: _pos(k / x - 1), lambda k: 0),
    # call on one dollar, struck in euros
    "dollar_call": Payoff(lambda x, k, u=1: _pos(u * u - k * x),
                          lambda x, k: _pos(1 / x - k), lambda k: 0),
    "dollar_put": Payoff(lambda x, k, u=1: _pos(k * x - u * u),
                         lambda x, k: _pos(k - 1 / x), lambda k: k),
    "self_quantoed": Payoff(lambda x, k, u=1: x * _pos(x - k),
                            lambda x, k: _pos(x - k), lambda k: math.inf),
    "digital_explosion": Payoff(lambda x, k, u=1: _const(x, 0),
                                lambda x, k: _const(x, 0),
                                lambda k: 1, takes_strike=False),
}

CLAIM_KINDS = tuple(PAYOFFS)


def payoff_row(kind: str, strike, num: type = float) -> tuple[Payoff, object]:
    """The table row of a claim kind and its strike converted by `num`.

    The strike is None for kinds that take none.  Raises ConfigError for an
    unknown kind and for a missing, nonpositive, nan or infinite strike.
    """
    row = PAYOFFS.get(kind)
    if row is None:
        raise ConfigError(f"unknown claim kind {kind!r}; known: {CLAIM_KINDS}")
    if not row.takes_strike:
        return row, None
    try:
        k = num(strike)
    except (TypeError, ValueError, ArithmeticError):
        k = math.nan   # None, text, "1/0", or nan or inf read as a Fraction
    if not 0 < k < math.inf:
        raise ConfigError(f"claim kind {kind!r} needs a positive finite "
                          f"strike, got {strike!r}")
    return row, k


SCHEMES = ("auto", "euler_absorbed", "exact")

# the Euler kernel steps about 2e7 path-steps/s on one core, so this bound
# refuses a config that would run for more than minutes; the largest default
# use, convergence at 100,000 paths x 512 steps, is 5.1e7 path-steps
MAX_PATH_STEPS = 10**10


@dataclass(frozen=True)
class MCConfig:
    n: int = 100_000
    steps: int = 64
    seed: int = 0
    scheme: str = "auto"     # one of SCHEMES
    workers: int = 1

    def __post_init__(self):
        for name in ("n", "steps", "seed", "workers"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{name} must be an int, got {v!r}")
        if self.n < 1 or self.steps < 1 or self.workers < 1:
            raise ConfigError(f"n, steps and workers must be >= 1, got "
                              f"{self.n}, {self.steps} and {self.workers}")
        if self.n * self.steps > MAX_PATH_STEPS:
            raise ConfigError(
                f"n * steps must be at most MAX_PATH_STEPS = "
                f"{MAX_PATH_STEPS:.0e} path-steps per simulation")
        if self.scheme not in SCHEMES:
            raise SchemeUnsupported(
                f"unknown scheme {self.scheme!r}; known: {', '.join(SCHEMES)}")
