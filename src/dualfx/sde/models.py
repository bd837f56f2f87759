"""Driftless diffusion models and the change-of-numeraire dual.

A model gives the diffusion coefficient of the exchange rate X under the
dollar measure.  Its dual, a model too, is the diffusion of Y = 1/X, the euro
price of one dollar, under the euro measure (the local change of measure):

    sigma_Y(y, t) = y^2 * sigma(1/y, t),      y0 = 1/x0.

Explosion of X is never simulated directly; it is bookkept as absorption of Y
at zero in the dual simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

SigmaFn = Callable[[object, float], object]  # see DiffusionModel
# (generator, m, start, horizon) -> (values, hit_times): m exact terminal
# samples from `start`, with a nan hit time where a path never hit zero
ExactSampler = Callable[[object, int, float, float], tuple]


@dataclass(frozen=True)
class DiffusionModel:
    """Diffusion of X under the dollar measure: dX = sigma(X, t) dW, X_0 = x0.

    `sigma(x, t)` is called on a float array x of live rates and returns
    sigma at each, as an array of x's shape or as one scalar; it must be
    finite on (0, inf) x [0, T).  A singularity as t -> T is allowed (the
    deterministically time-changed model uses one) and must be handled by
    the model's exact sampler; such a model sets `exact_only`, and the Euler
    scheme is refused on it and on its dual.  `exact` samples the
    terminal law of X and `dual_exact` that of Y = 1/X under the euro
    measure; either is None where the model has no exact sampler.
    `dual_payoff_flags` maps claim kinds to "integrable" / "nonintegrable" /
    "unknown" verdicts on the euro-side expectation, so the pricer can return
    an analytic infinity where Monte Carlo would silently produce garbage.
    """

    name: str
    sigma: SigmaFn
    x0: float
    horizon: float
    dual_payoff_flags: Mapping[str, str] = field(default_factory=dict)
    exact: ExactSampler | None = None
    dual_exact: ExactSampler | None = None
    exact_only: bool = False


def derive_dual_model(model: DiffusionModel) -> DiffusionModel:
    """The diffusion of the reciprocal rate under the euro measure, with the
    model's samplers swapped: the dual of the dual samples as the model."""
    primal = model.sigma

    def sigma_y(y, t):
        s = y * y
        s *= primal(1.0 / y, t)
        return s

    return DiffusionModel(f"{model.name}.dual", sigma_y, 1.0 / model.x0,
                          model.horizon, exact=model.dual_exact,
                          dual_exact=model.exact, exact_only=model.exact_only)
