"""The two-measure pricing operator over simulated models.

Prices are always reported as a decomposition: the classical expectation under
the dollar measure plus the explosion correction carried by the euro measure,

    total$ = E_Q$[D$] + x0 * E_Qe[De 1{explosion}],     total_euro = total$/x0.

Claims whose euro leg is flagged nonintegrable by the model are priced as an
analytic infinity; no Monte Carlo number is reported as the price, because no
finite sample certifies an infinite expectation.  A tail diagnostic over a
finite-resolution dual simulation corroborates the verdict empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .sde.engine import (Estimate, MCConfig, TerminalBatch, _run_blocks,
                         combined_stderr, dual_seed, estimate_from_values,
                         make_batches, simulate, z_score)
from .sde.models import DiffusionModel, derive_dual_model


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def _pos(v):
    """Positive part, on numpy float arrays and on scalars (Fractions)."""
    return np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0)


def _const(x, c):
    """The constant c shaped like x: a float array on arrays, c on scalars."""
    return np.full_like(x, c) if isinstance(x, np.ndarray) else c


@dataclass(frozen=True)
class Payoff:
    """One claim kind, written once for numpy float arrays and for Fractions.

    `dollar(x, k)` is the dollar leg on [0, inf) and `euro(x, k)` the euro leg
    on (0, inf), equal to dollar / x there.  `euro_at_explosion(k)` is the
    euro value at explosion, math.inf for an infinite payoff.  The dollar
    value at explosion is inf times the euro value there, under inf * 0 = 0.
    """

    dollar: Callable
    euro: Callable
    euro_at_explosion: Callable
    takes_strike: bool = True


PAYOFFS: dict[str, Payoff] = {
    "euro_forward": Payoff(lambda x, k: x, lambda x, k: _const(x, 1),
                           lambda k: 1, takes_strike=False),
    "call": Payoff(lambda x, k: _pos(x - k), lambda x, k: _pos(1 - k / x),
                   lambda k: 1),
    "put": Payoff(lambda x, k: _pos(k - x), lambda x, k: _pos(k / x - 1),
                  lambda k: 0),
    # call on one dollar, struck in euros
    "dollar_call": Payoff(lambda x, k: _pos(1 - k * x),
                          lambda x, k: _pos(1 / x - k), lambda k: 0),
    "dollar_put": Payoff(lambda x, k: _pos(k * x - 1),
                         lambda x, k: _pos(k - 1 / x), lambda k: k),
    "self_quantoed": Payoff(lambda x, k: x * _pos(x - k),
                            lambda x, k: _pos(x - k), lambda k: math.inf),
    "digital_explosion": Payoff(lambda x, k: _const(x, 0),
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
    except (TypeError, ValueError, OverflowError):
        k = math.nan   # None, text, or a nan or inf strike read as a Fraction
    if not 0 < k < math.inf:
        raise ConfigError(f"claim kind {kind!r} needs a positive finite "
                          f"strike, got {strike!r}")
    return row, k


@dataclass(frozen=True)
class Claim:
    """Payoff pair: vectorized dollar leg on [0, inf) and euro leg on (0, inf),
    plus the euro leg's value at the explosion state (possibly inf).

    The euro leg equals dollar leg / rate wherever the rate is finite; the
    absorbed-state values apply the inf * 0 = 0 convention before any
    arithmetic so digital and forward payoffs stay well defined.
    """

    kind: str
    strike: float | None
    dollar_finite: Callable[[np.ndarray], np.ndarray]
    euro_finite: Callable[[np.ndarray], np.ndarray]
    euro_at_explosion: float


def make_claim(kind: str, strike: float | None = None) -> Claim:
    """Float evaluation of a `PAYOFFS` row; a kind without a strike ignores
    the one given."""
    row, k = payoff_row(kind, strike)
    return Claim(kind, k, lambda x: row.dollar(x, k), lambda x: row.euro(x, k),
                 float(row.euro_at_explosion(k)))


def euro_correction_values(claim: Claim, dual: TerminalBatch) -> np.ndarray:
    """Per-path euro payoff on the explosion event, zero elsewhere."""
    out = np.zeros(len(dual))
    out[dual.hit_infinity] = claim.euro_at_explosion
    return out


def euro_leg_values(claim: Claim, dual: TerminalBatch) -> np.ndarray:
    """Per-path euro payoff on a dual batch (survivors plus explosion value)."""
    surv = ~dual.hit_infinity
    out = np.full(len(dual), float(claim.euro_at_explosion))
    out[surv] = claim.euro_finite(dual.x[surv])
    return out


def devaluation_values(claim: Claim, primal: TerminalBatch) -> np.ndarray:
    """Per-path dollar payoff on the devaluation event, zero elsewhere."""
    return np.where(primal.x == 0.0, claim.dollar_finite(primal.x), 0.0)


# ---------------------------------------------------------------------------
# price decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualPrice:
    claim: str
    strike: float | None
    classical: Estimate | None
    correction: Estimate | None
    total_dollar: float          # inf when the analytic flag fires
    total_euro: float
    flags: dict

    @property
    def total_stderr(self) -> float:
        legs = [e for e in (self.classical, self.correction) if e is not None]
        return combined_stderr(*legs) if legs else 0.0


def price(model: DiffusionModel, claim: Claim, cfg: MCConfig,
          batches: tuple[TerminalBatch, TerminalBatch] | None = None
          ) -> DualPrice:
    """Two-measure price of a claim: classical leg, correction leg, totals."""
    if batches is None:
        batches = make_batches(model, cfg)
    primal, dual = batches
    classical = estimate_from_values(claim.dollar_finite(primal.x), primal.seed)
    if model.dual_payoff_flags.get(claim.kind) == "nonintegrable":
        return DualPrice(claim.kind, claim.strike, classical, None,
                         math.inf, math.inf, {"analytic_infinite": True})
    correction = estimate_from_values(
        euro_correction_values(claim, dual), dual.seed).scale(model.x0)
    total = classical.mean + correction.mean
    return DualPrice(claim.kind, claim.strike, classical, correction,
                     total, total / model.x0, {})


def price_euro_side(model: DiffusionModel, claim: Claim, cfg: MCConfig,
                    batches: tuple[TerminalBatch, TerminalBatch] | None = None
                    ) -> tuple[Estimate, Estimate]:
    """Euro-side decomposition pe = E_Qe[De] + (1/x0) E_Q$[D$ 1{X_T = 0}].

    Returns (euro classical leg, devaluation correction leg), both in euros.
    """
    if batches is None:
        batches = make_batches(model, cfg)
    primal, dual = batches
    euro_classical = estimate_from_values(euro_leg_values(claim, dual), dual.seed)
    correction = estimate_from_values(devaluation_values(claim, primal),
                                      primal.seed).scale(1.0 / model.x0)
    return euro_classical, correction


# ---------------------------------------------------------------------------
# parity and equivalence tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityRow:
    strike: float
    call: DualPrice
    put: DualPrice
    residual: float              # p(C) + K - p(P) - x0
    residual_stderr: float
    classical_violation: float   # E[(X-K)^+] + K - E[(K-X)^+] - x0
    violation_stderr: float
    minus_correction_mass: float  # -x0 * Qe(explosion), what the violation is
    mass_stderr: float


def parity_table(model: DiffusionModel, strikes: Sequence[float],
                 cfg: MCConfig) -> list[ParityRow]:
    """Put-call parity report with common random numbers across all legs."""
    batches = make_batches(model, cfg)
    x0 = model.x0
    # the euro forward's legs, E_Q$[X_T] and x0 * Qe(explosion), are the
    # residual's pathwise pieces: the call and put dollar legs differ by
    # x - K sample by sample, their dual legs by the explosion mass
    forward = price(model, make_claim("euro_forward"), cfg, batches)
    se_dollar = forward.classical.stderr
    mass = forward.correction
    residual_se = math.hypot(se_dollar, mass.stderr)
    rows = []
    for k in strikes:
        if k == 0:
            call = forward
            primal = batches[0]
            zero = estimate_from_values(np.zeros(len(primal)), primal.seed)
            put = DualPrice("put", 0.0, zero, zero.scale(x0), 0.0, 0.0, {})
        else:
            call = price(model, make_claim("call", k), cfg, batches)
            put = price(model, make_claim("put", k), cfg, batches)
        residual = call.total_dollar + k - put.total_dollar - x0
        violation = call.classical.mean + k - put.classical.mean - x0
        rows.append(ParityRow(
            strike=float(k), call=call, put=put,
            residual=residual, residual_stderr=residual_se,
            classical_violation=violation, violation_stderr=se_dollar,
            minus_correction_mass=-mass.mean,
            mass_stderr=mass.stderr,
        ))
    return rows


@dataclass(frozen=True)
class EquivalenceRow:
    strike: float
    call_lhs: float      # p$(C$_K)
    call_rhs: float      # x0 K pe(Pe_{1/K})
    z_call: float
    put_lhs: float       # p$(P$_K)
    put_rhs: float       # x0 K pe(Ce_{1/K})
    z_put: float


def intl_equivalence_table(model: DiffusionModel, strikes: Sequence[float],
                           cfg: MCConfig) -> list[EquivalenceRow]:
    """Cross-currency call/put equivalence, z-scored with shared batches.

    Each row holds p$(A_K) = x0 K pe(B_{1/K}) for the pairs (A, B) = (call,
    dollar put) and (put, dollar call): the dollar price is the dollar leg
    plus x0 times A's explosion leg, the euro price B's euro leg plus 1/x0
    times B's devaluation leg.  The z-scores combine each batch's pathwise
    difference first, so the common random numbers cancel exactly where the
    identity telescopes.
    """
    primal, dual = make_batches(model, cfg)
    x0 = model.x0
    rows = []
    for k in strikes:
        sides = []
        for a_kind, b_kind in (("call", "dollar_put"), ("put", "dollar_call")):
            a, b = make_claim(a_kind, k), make_claim(b_kind, 1.0 / k)
            a_dollar = a.dollar_finite(primal.x)
            a_expl = euro_correction_values(a, dual)
            b_euro = euro_leg_values(b, dual)
            b_dev = devaluation_values(b, primal)
            lhs = float(a_dollar.mean()) + float(a_expl.mean()) * x0
            rhs = x0 * k * (float(b_euro.mean())
                            + float(b_dev.mean()) * (1.0 / x0))
            z = z_score(
                estimate_from_values(a_dollar - k * b_dev, primal.seed),
                estimate_from_values(x0 * (a_expl - k * b_euro),
                                     dual.seed).scale(-1.0))
            sides += [lhs, rhs, z]
        rows.append(EquivalenceRow(float(k), *sides))
    return rows


# ---------------------------------------------------------------------------
# martingale defect and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectReport:
    defect: float            # x0 - E_Q$[X_T]
    defect_stderr: float
    dual_mass: float         # x0 * Qe(explosion)
    mass_stderr: float
    z: float                 # (defect - dual_mass) / combined stderr
    strict: bool             # defect > 3 stderr: the rate is not a martingale


def martingale_defect(model: DiffusionModel, cfg: MCConfig,
                      batches: tuple[TerminalBatch, TerminalBatch] | None = None
                      ) -> DefectReport:
    # the euro forward's legs: E_Q$[X_T] and x0 * Qe(explosion)
    forward = price(model, make_claim("euro_forward"), cfg, batches)
    ex, mass = forward.classical, forward.correction
    defect = model.x0 - ex.mean
    z = z_score(Estimate(defect, ex.stderr, ex.n, ex.seed), mass)
    return DefectReport(defect, ex.stderr, mass.mean, mass.stderr, z,
                        strict=defect > 3.0 * ex.stderr)


@dataclass(frozen=True)
class TailPoint:
    n: int
    steps: int
    cap: float
    running_mean: float   # capped naive dual estimate of the euro leg


def _naive_dual_values(model: DiffusionModel, claim: Claim, n: int,
                       steps: int, seed: int) -> np.ndarray:
    """Euro leg under a naive dual simulation with no absorption bookkeeping.

    This reproduces the estimator a pricer WITHOUT explosion accounting would
    use: plain Euler steps of the reciprocal rate, payoff read off wherever
    the simulated value is still positive.  For nonintegrable euro legs its
    mean diverges as the sampling effort grows.
    """
    dual = derive_dual_model(model)
    dt = dual.horizon / steps
    sqdt = math.sqrt(dt)

    def body(gen, m):
        y = np.full(m, dual.y0)
        for k in range(steps):
            z = gen.standard_normal(m)
            # no absorption and no sign handling: this is the estimator a
            # naive pricer would run; only y == 0 needs a division guard
            s = np.asarray(dual.sigma(np.where(y == 0.0, 1e-300, y), k * dt),
                           float)
            if s.shape != y.shape:
                s = np.broadcast_to(s, y.shape)
            y = y + s * sqdt * z
        vals = np.zeros(m)
        # overflowed reciprocal rates sit in the devalued region where the
        # euro legs of interest vanish; count them as zero
        pos = (y > 0) & np.isfinite(y)
        vals[pos] = claim.euro_finite(1.0 / y[pos])
        return (vals,)

    with np.errstate(all="ignore"):
        (out,) = _run_blocks(n, seed, 1, body)
    return out


def tail_diagnostic(model: DiffusionModel, claim: Claim,
                    ns: Sequence[int], cfg: MCConfig,
                    cap0: float = 10.0) -> list[TailPoint]:
    """Naive dual running means at growing effort, capped per level.

    Each level grows the sample, the grid and the payoff cap together; a
    nonintegrable euro leg keeps climbing level after level (the truncated
    mean of a fat tail grows with the truncation) instead of settling.
    Advisory evidence for the analytic-infinity verdict, never a price.
    """
    sizes = sorted(int(n) for n in ns)
    out = []
    steps = cfg.steps
    cap = cap0
    for n in sizes:
        vals = _naive_dual_values(model, claim, n, steps,
                                  dual_seed(cfg.seed) + steps)
        out.append(TailPoint(n, steps, cap,
                             float(np.minimum(vals, cap).mean())))
        steps *= 4
        cap *= 10.0
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    steps: int
    estimate: float
    stderr: float
    abs_diff: float   # |euler estimate - exact estimate|


def scheme_convergence(model: DiffusionModel, levels: Sequence[int],
                       cfg: MCConfig) -> tuple[Estimate, list[ConvergenceRow]]:
    """Euler estimates of E[X_T] against the exact scheme across grid levels."""
    exact = simulate(model, replace(cfg, scheme="exact"))
    ref = estimate_from_values(exact.x, exact.seed)
    rows = []
    for steps in levels:
        b = simulate(model, replace(cfg, scheme="euler_absorbed", steps=steps))
        est = estimate_from_values(b.x, b.seed)
        rows.append(ConvergenceRow(steps, est.mean, est.stderr,
                                   abs(est.mean - ref.mean)))
    return ref, rows
