"""Built-in exchange-rate models with exact schemes and analytic references.

The catalog pairs each diffusion with closed-form (or quadrature) reference
quantities used as oracles by the verification suite, and with the integrable
/ nonintegrable verdicts for euro-side payoffs that let the pricer return an
analytic infinity where Monte Carlo cannot.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from .errors import UnknownModel
from .sde.models import DiffusionModel

MODEL_NAMES = ("recip_bessel", "stopped_bm", "singular_timechange",
               "exp_martingale_baseline", "qnv(a,b,c)")


@dataclass(frozen=True)
class CatalogEntry:
    model: DiffusionModel
    # named reference quantities, each a closed-form or quadrature evaluator
    analytic: Mapping[str, Callable[..., float]] = field(default_factory=dict)
    # hand-derived dual diffusion coefficient, for cross-checking the generic
    # derivation on a grid
    dual_sigma_reference: Callable[[object, float], object] | None = None
    notes: str = ""

    @property
    def name(self) -> str:
        return self.model.name


def _survival_bm(start: float, horizon: float) -> float:
    """P(Brownian motion from `start` stays positive up to the horizon)."""
    return 1.0 - 2.0 * norm.cdf(-start / math.sqrt(horizon))


def _recip_bessel_x2(x0: float, horizon: float) -> float:
    """E[X_T^2] for the reciprocal Bessel rate, by quadrature of the killed
    Brownian density of the reciprocal rate started at 1/x0."""
    a = 1.0 / x0
    s = math.sqrt(horizon)

    def integrand(y: float) -> float:
        return (1.0 / y) * (norm.pdf((y - a) / s) - norm.pdf((y + a) / s)) / s

    val, _ = quad(integrand, 0.0, np.inf, limit=200)
    return x0 * val


def _black_call(x0: float, vol: float, horizon: float, strike: float) -> float:
    """Driftless lognormal call value."""
    if strike <= 0:
        return x0
    sig = vol * math.sqrt(horizon)
    d1 = (math.log(x0 / strike) + 0.5 * sig * sig) / sig
    return x0 * norm.cdf(d1) - strike * norm.cdf(d1 - sig)


def _recip_bessel(x0: float, horizon: float) -> CatalogEntry:
    model = DiffusionModel(
        name="recip_bessel",
        sigma=lambda x, t: x * x,
        x0=x0,
        horizon=horizon,
        zero_attainable=False,
        dual_payoff_flags={"self_quantoed": "nonintegrable"},
        exact_scheme="bes3_reciprocal",
        dual_exact_scheme="absorbed_bm",
    )
    return CatalogEntry(
        model=model,
        analytic={
            # the dual absorbed-BM survival gives E[X_T] = x0 * survival
            "expected_x": lambda T=horizon: x0 * _survival_bm(1.0 / x0, T),
            "dual_absorption_prob":
                lambda T=horizon: 1.0 - _survival_bm(1.0 / x0, T),
            "expected_x_squared": lambda T=horizon: _recip_bessel_x2(x0, T),
        },
        dual_sigma_reference=lambda y, t: np.ones_like(np.asarray(y, float)),
        notes="strictly positive strict supermartingale rate; the reciprocal "
              "rate is Brownian motion absorbed at zero under the euro measure",
    )


def _stopped_bm(x0: float, horizon: float) -> CatalogEntry:
    model = DiffusionModel(
        name="stopped_bm",
        sigma=lambda x, t: np.ones_like(np.asarray(x, float)),
        x0=x0,
        horizon=horizon,
        zero_attainable=True,
        dual_payoff_flags={},
        exact_scheme="absorbed_bm",
        dual_exact_scheme="bes3_reciprocal",
    )
    return CatalogEntry(
        model=model,
        analytic={
            "expected_x": lambda T=horizon: x0,   # true martingale
            "devaluation_prob":
                lambda T=horizon: 1.0 - _survival_bm(x0, T),
            "dual_absorption_prob": lambda T=horizon: 0.0,
        },
        dual_sigma_reference=lambda y, t: np.asarray(y, float) ** 2,
        notes="martingale rate hitting zero; no explosion mass, corrections "
              "vanish and classical pricing applies",
    )


def _singular_timechange(x0: float, horizon: float) -> CatalogEntry:
    T = horizon
    model = DiffusionModel(
        name="singular_timechange",
        sigma=lambda x, t: np.full_like(np.asarray(x, float),
                                        1.0 / math.sqrt(T - t)),
        x0=x0,
        horizon=T,
        zero_attainable=True,
        dual_payoff_flags={"self_quantoed": "nonintegrable"},
        exact_scheme="singular_exact",
        dual_exact_scheme="singular_dual_exact",
    )
    return CatalogEntry(
        model=model,
        analytic={
            "expected_x": lambda: 0.0,
            "devaluation_prob": lambda: 1.0,
            "dual_absorption_prob": lambda: 1.0,
        },
        dual_sigma_reference=lambda y, t: np.asarray(y, float) ** 2
        / math.sqrt(T - t),
        notes="deterministically time-changed Brownian motion; the primal "
              "measure devalues surely while the dual measure explodes surely "
              "(mutually singular measure pair)",
    )


def _exp_martingale(x0: float, horizon: float, vol: float) -> CatalogEntry:
    model = DiffusionModel(
        name="exp_martingale_baseline",
        sigma=lambda x, t: vol * np.asarray(x, float),
        x0=x0,
        horizon=horizon,
        zero_attainable=False,
        dual_payoff_flags={"self_quantoed": "integrable"},
        exact_scheme="gbm",
        dual_exact_scheme="gbm",
        params={"vol": vol},
    )
    return CatalogEntry(
        model=model,
        analytic={
            "expected_x": lambda T=horizon: x0,
            "dual_absorption_prob": lambda T=horizon: 0.0,
            "call": lambda strike, T=horizon: _black_call(x0, vol, T, strike),
        },
        dual_sigma_reference=lambda y, t: vol * np.asarray(y, float),
        notes="true-martingale lognormal baseline; both measures equivalent",
    )


_QNV_RE = re.compile(r"qnv\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)")


def _qnv(a: float, b: float, c: float, x0: float, horizon: float) -> CatalogEntry:
    model = DiffusionModel(
        name=f"qnv({a:g},{b:g},{c:g})",
        sigma=lambda x, t: np.abs(a * np.asarray(x, float) ** 2
                                  + b * np.asarray(x, float) + c),
        x0=x0,
        horizon=horizon,
        zero_attainable=True,
        dual_payoff_flags={"self_quantoed": "unknown"},
        exact_scheme=None,
        dual_exact_scheme=None,
    )
    return CatalogEntry(
        model=model,
        analytic={},
        # the quadratic family is closed under the reciprocal-rate dual with
        # reversed coefficients
        dual_sigma_reference=lambda y, t: np.abs(
            c * np.asarray(y, float) ** 2 + b * np.asarray(y, float) + a),
        notes="quadratic diffusion family; no per-case analytic references",
    )


def get_model(name: str, x0: float = 1.0, horizon: float = 1.0,
              vol: float = 0.5) -> CatalogEntry:
    """Look up a catalog entry by name.

    Known names: recip_bessel, stopped_bm, singular_timechange,
    exp_martingale_baseline, qnv(a,b,c).  `vol` applies to the lognormal
    baseline only.
    """
    if not (0 < x0 < math.inf and 0 < horizon < math.inf):   # nan fails too
        raise UnknownModel("x0 and horizon must be positive and finite")
    if name == "recip_bessel":
        return _recip_bessel(x0, horizon)
    if name == "stopped_bm":
        return _stopped_bm(x0, horizon)
    if name == "singular_timechange":
        return _singular_timechange(x0, horizon)
    if name == "exp_martingale_baseline":
        return _exp_martingale(x0, horizon, vol)
    m = _QNV_RE.fullmatch(name.strip())
    if m:
        a, b, c = (float(g) for g in m.groups())
        if not all(map(math.isfinite, (a, b, c))):
            raise UnknownModel(f"qnv coefficients must be finite: {name!r}")
        return _qnv(a, b, c, x0, horizon)
    raise UnknownModel(f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")


def list_models() -> list[str]:
    return list(MODEL_NAMES)
