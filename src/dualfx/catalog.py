"""Built-in exchange-rate models with exact samplers and analytic references.

The catalog pairs each diffusion with the exact samplers of its two laws,
one per currency, with closed-form reference quantities used as oracles by
the verification suite, and with the integrable / nonintegrable verdicts for
euro-side payoffs that let the pricer return an analytic infinity where
Monte Carlo cannot.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import SchemeUnsupported, UnknownModel
from .sde.models import DiffusionModel

MODEL_NAMES = ("recip_bessel", "stopped_bm", "singular_timechange",
               "exp_martingale_baseline", "qnv(a,b,c)")


@dataclass(frozen=True)
class CatalogEntry:
    model: DiffusionModel
    # named reference quantities, each a closed-form evaluator at the
    # entry's x0 and horizon
    analytic: Mapping[str, Callable[..., float]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.model.name


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _survival_bm(start: float, horizon: float) -> float:
    """P(Brownian motion from `start` stays positive up to the horizon)."""
    return 1.0 - 2.0 * _norm_cdf(-start / math.sqrt(horizon))


def _dawson(x: float) -> float:
    """Dawson's integral D(x) = exp(-x^2) int_0^x exp(t^2) dt to double
    precision: its Maclaurin series below 0.2, its asymptotic series above
    1e7 (where the float spacing of x nears Rybicki's step), else Rybicki's
    sum with step h = 0.2 (*Numerical Recipes*, section 6.10)."""
    if abs(x) > 1e7:
        return (1 + 0.5 / (x * x)) / (2 * x)
    if abs(x) < 0.2:
        return x * sum((-2 * x * x) ** n / math.prod(range(1, 2 * n + 2, 2))
                       for n in range(10))
    h = 0.2
    n0 = 2 * round(0.5 * abs(x) / h)
    xp = abs(x) - n0 * h
    e1, e2 = math.exp(2 * xp * h), math.exp(4 * xp * h)
    total = 0.0
    for i in range(16):
        c = math.exp(-((2 * i + 1) * h) ** 2)
        total += c * (e1 / (n0 + 2 * i + 1) + 1 / ((n0 - 2 * i - 1) * e1))
        e1 *= e2
    return math.copysign(total * math.exp(-xp * xp) / math.sqrt(math.pi), x)


def _black_call(x0: float, vol: float, horizon: float, strike: float) -> float:
    """Driftless lognormal call value."""
    if strike <= 0:
        return x0
    sig = vol * math.sqrt(horizon)
    d1 = (math.log(x0 / strike) + 0.5 * sig * sig) / sig
    return x0 * _norm_cdf(d1) - strike * _norm_cdf(d1 - sig)


# the exact samplers, each an ExactSampler: (gen, m, start, horizon) ->
# (values, hit_times); a model holds one per measure

def bes3_reciprocal(gen, m, start, horizon):
    """X = 1/||a e1 + W_T|| with a = 1/x0: reciprocal Bessel(3) terminal law."""
    a = 1.0 / start
    g = gen.standard_normal((m, 3))
    sq = math.sqrt(horizon)
    r = np.sqrt((a + sq * g[:, 0]) ** 2 + horizon * (g[:, 1] ** 2 + g[:, 2] ** 2))
    return 1.0 / r, np.full(m, np.nan)


# a rejection round accepts each survivor with probability
# q = 2 Phi(start / sqrt(horizon)) - 1, so a survivor outlasts the bound with
# probability (1 - q)^10000: about 1e-7 at start / sqrt(horizon) = 2e-3, and
# nil at the catalog's unit start (q ~ 0.68)
MAX_REJECTION_ROUNDS = 10_000


def absorbed_bm(gen, m, start, horizon):
    """Absorbed Brownian motion: exact first-passage time, then the terminal
    value of survivors from the killed density by rejection.  Raises
    SchemeUnsupported when MAX_REJECTION_ROUNDS rounds leave survivors
    without a terminal value."""
    g = gen.standard_normal(m)
    with np.errstate(divide="ignore"):
        tau = start * start / (g * g)
    absorbed = tau <= horizon
    x = np.zeros(m)
    hit = np.where(absorbed, tau, np.nan)
    todo = np.flatnonzero(~absorbed)
    sq = math.sqrt(horizon)
    rounds = 0
    while todo.size:
        if rounds == MAX_REJECTION_ROUNDS:
            raise SchemeUnsupported(
                f"exact absorbed-BM sampler: {todo.size} path(s) left after "
                f"{rounds} rejection rounds (start={start!r}, "
                f"horizon={horizon!r}); use scheme 'euler_absorbed'")
        rounds += 1
        b = start + sq * gen.standard_normal(todo.size)
        u = gen.random(todo.size)
        with np.errstate(over="ignore"):    # a tiny horizon: accept b > 0
            ok = (b > 0.0) & (u < -np.expm1(-2.0 * start * b / horizon))
        x[todo[ok]] = b[ok]
        todo = todo[~ok]
    return x, hit


def _gbm(vol: float):
    """The driftless lognormal sampler of volatility `vol`."""
    def gbm(gen, m, start, horizon):
        w = math.sqrt(horizon) * gen.standard_normal(m)
        return (start * np.exp(vol * w - 0.5 * vol * vol * horizon),
                np.full(m, np.nan))
    return gbm


def singular_exact(gen, m, start, horizon):
    """Time-changed Brownian motion that devalues before the horizon almost
    surely: S = T (1 - exp(-tau)) with tau the exact BM first-passage time."""
    g = gen.standard_normal(m)
    with np.errstate(divide="ignore"):
        tau = start * start / (g * g)
    hit = horizon * -np.expm1(-tau)
    return np.zeros(m), hit


def singular_dual_exact(gen, m, start, horizon):
    """Dual of the singular model: the reciprocal rate is absorbed at zero
    exactly as the model's clock ln(T / (T - t)) runs out, at the horizon,
    on every path (the rate explodes surely)."""
    return np.zeros(m), np.full(m, float(horizon))


def _on_clock(sampler, rate: float):
    """`sampler` on the clock rate * t: it runs to rate * horizon, and its
    hit times are read back on the model's clock."""
    if rate == 1:
        return sampler

    @functools.wraps(sampler)
    def clocked(gen, m, start, horizon):
        x, hit = sampler(gen, m, start, rate * horizon)
        return x, hit / rate
    return clocked


def _singular_timechange(x0: float, T: float) -> CatalogEntry:
    model = DiffusionModel(
        name="singular_timechange", x0=x0, horizon=T,
        sigma=lambda x, t: np.full_like(np.asarray(x, float),
                                        1.0 / math.sqrt(T - t)),
        dual_payoff_flags={"self_quantoed": "nonintegrable"},
        exact=singular_exact, dual_exact=singular_dual_exact,
        exact_only=True)   # sigma is singular at T
    return CatalogEntry(model, {"expected_x": lambda: 0.0,
                                "devaluation_prob": lambda: 1.0,
                                "dual_absorption_prob": lambda: 1.0})


def _quadratic_sigma(a: float, b: float, c: float):
    """|a x^2 + b x + c| from its nonzero terms, in the formula's order: its
    bits where all terms are finite, and no 0 * inf = nan.  The abs is taken
    only where the polynomial can be negative."""
    signed = b != 0 or a < 0 or c < 0

    def sigma(x, t):
        x = np.asarray(x, float)
        s = np.multiply(x, x, out=np.empty_like(x)) if a else np.zeros_like(x)
        if a not in (0, 1):
            s *= a
        if b:
            s += b * x
        if c:
            s += c
        return np.abs(s, out=s) if signed else s
    return sigma


def _case(a: float, b: float, c: float, x0: float, T: float):
    """(exact sampler, dual_payoff_flags, references) of qnv(a,b,c) at x0.

    The one-coefficient cases are recip_bessel, the lognormal baseline and
    stopped_bm on the clocks a^2 t, b^2 t and c^2 t; every other case has no
    sampler, no reference and an unknown verdict."""
    if a and not (b or c):
        clock = a * a * T   # on it, 1/X is BM from 1/x0 killed at 0 under Qe
        flags = {"self_quantoed": "nonintegrable"}
        return _on_clock(bes3_reciprocal, a * a), flags, {
            # the dual absorbed-BM survival gives E[X_T] = x0 * survival
            "expected_x": lambda: x0 * _survival_bm(1.0 / x0, clock),
            "dual_absorption_prob":
                lambda: 1.0 - _survival_bm(1.0 / x0, clock),
            # x0 E[1/Y_T] for the Brownian motion Y from 1/x0 killed at 0
            "expected_x_squared": lambda: x0 * math.sqrt(2.0 / clock)
                * _dawson(1.0 / (x0 * math.sqrt(2.0 * clock))),
        }
    if c and not (a or b):
        clock = c * c * T   # on it, X is BM from x0 killed at 0 under Q$
        return _on_clock(absorbed_bm, c * c), {}, {
            "expected_x": lambda: x0,
            "devaluation_prob": lambda: 1.0 - _survival_bm(x0, clock),
            "dual_absorption_prob": lambda: 0.0,
        }
    if b and not (a or c):
        vol = abs(b)
        return _gbm(vol), {"self_quantoed": "integrable"}, {
            "expected_x": lambda: x0,
            "dual_absorption_prob": lambda: 0.0,
            "call": lambda strike: _black_call(x0, vol, T, strike),
        }
    return None, {"self_quantoed": "unknown"}, {}


def _quadratic(a: float, b: float, c: float, x0: float, T: float,
               name: str) -> CatalogEntry:
    """qnv(a,b,c) from x0 over T.  Its dual is qnv(c,b,a), since sigma_Y(y) =
    y^2 sigma(1/y), so the dual sampler is the reversed case's."""
    exact, flags, analytic = _case(a, b, c, x0, T)
    model = DiffusionModel(
        name=name, sigma=_quadratic_sigma(a, b, c), x0=x0, horizon=T,
        dual_payoff_flags=flags, exact=exact,
        dual_exact=_case(c, b, a, 1.0 / x0, T)[0])
    return CatalogEntry(model, analytic)


_QNV_RE = re.compile(r"qnv\(\s*([^,]+)\s*,\s*([^,]+)\s*,\s*([^)]+)\s*\)")


def get_model(name: str, x0: float = 1.0, horizon: float = 1.0,
              vol: float = 0.5) -> CatalogEntry:
    """Look up a catalog entry by name.

    Known names: recip_bessel, stopped_bm, singular_timechange,
    exp_martingale_baseline, qnv(a,b,c).  The first two and the lognormal
    baseline are qnv(1,0,0), qnv(0,0,1) and qnv(0,vol,0) under their own
    names; `vol` applies to the lognormal baseline only.
    """
    # nan fails too, and so does an int beyond float range: int-float
    # comparisons are exact.  The dual leg starts at 1 / x0.
    if not (all(0 < v <= sys.float_info.max for v in (x0, horizon, vol))
            and 1 / x0 <= sys.float_info.max):
        raise UnknownModel(
            "x0, horizon and vol must be positive and finite, and so must 1/x0")
    if name == "singular_timechange":
        return _singular_timechange(x0, horizon)
    named = {"recip_bessel": (1.0, 0.0, 0.0), "stopped_bm": (0.0, 0.0, 1.0),
             "exp_martingale_baseline": (0.0, float(vol), 0.0)}
    if name in named:
        coeffs = named[name]
    else:
        m = _QNV_RE.fullmatch(name.strip())
        if not m:
            raise UnknownModel(
                f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
        try:
            coeffs = tuple(float(g) for g in m.groups())
        except ValueError:
            raise UnknownModel(
                f"qnv coefficients must be numbers: {name!r}") from None
        if not all(map(math.isfinite, coeffs)):
            raise UnknownModel(f"qnv coefficients must be finite: {name!r}")
        name = "qnv({:g},{:g},{:g})".format(*coeffs)
    # each nonzero coefficient k runs a sampler clock k^2 T
    if not all(0 < k * k * horizon <= sys.float_info.max for k in coeffs if k):
        raise UnknownModel(
            f"{name}: each nonzero coefficient k needs a positive finite "
            f"clock k^2 * horizon")
    return _quadratic(*coeffs, x0, horizon, name)
