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
# CLAIM_KINDS is also read from here, by the benchmark
from .inputs import CLAIM_KINDS, MCConfig, payoff_row
from .sde.engine import (Estimate, TerminalBatch, _rounding, _run_blocks,
                         combined_stderr, dual_seed, estimate_from_values,
                         make_batches, simulate, z_score)
from .sde.models import DiffusionModel, derive_dual_model


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """Payoff pair: vectorized dollar leg on [0, inf) and euro leg on (0, inf),
    plus the euro leg's value at the explosion state (possibly inf).

    The euro leg equals dollar leg / rate wherever the rate is finite; the
    absorbed-state values apply the inf * 0 = 0 convention before any
    arithmetic so digital and forward payoffs stay well defined.  Both legs
    are called once on a whole batch, and `euro_finite` only ever sees
    finite positive rates.
    """

    kind: str
    strike: float | None
    dollar_finite: Callable[[np.ndarray], np.ndarray]
    euro_finite: Callable[[np.ndarray], np.ndarray]
    euro_at_explosion: float


def make_claim(kind: str, strike: float | None = None) -> Claim:
    """Float evaluation of an `inputs.PAYOFFS` row; a kind without a strike ignores
    the one given."""
    row, k = payoff_row(kind, strike)
    return Claim(kind, k, lambda x: row.dollar(x, k), lambda x: row.euro(x, k),
                 float(row.euro_at_explosion(k)))


def euro_correction_values(claim: Claim, dual: TerminalBatch) -> np.ndarray:
    """Per-path euro payoff on the explosion event, zero elsewhere: (0.0, c)
    looked up through the mask, exact for every c (inf * False is nan)."""
    return np.array((0.0, claim.euro_at_explosion)).take(dual.hit_infinity)


def euro_leg_values(claim: Claim, dual: TerminalBatch) -> np.ndarray:
    """Per-path euro payoff on a dual batch: one `euro_finite` call on the
    whole batch with the exploded paths, found once, at rate 1 (it sees only
    finite positive rates); they take the explosion value in a copy."""
    hit = np.flatnonzero(dual.hit_infinity)
    x = dual.x.copy()
    x[hit] = 1.0
    out = np.array(claim.euro_finite(x), dtype=float)
    out[hit] = claim.euro_at_explosion
    return out


def devaluation_values(claim: Claim, primal: TerminalBatch) -> np.ndarray:
    """Per-path dollar payoff on the devaluation event, zero elsewhere, with
    the dollar leg evaluated once, at the devalued state 0.0."""
    at_zero = claim.dollar_finite(np.zeros(1))[0]
    return np.array((0.0, at_zero)).take(primal.x == 0.0)


# ---------------------------------------------------------------------------
# price decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualPrice:
    claim: str
    strike: float | None
    classical: Estimate
    correction: Estimate | None
    total_dollar: float          # inf when the analytic flag fires
    total_euro: float
    flags: dict

    @property
    def total_stderr(self) -> float:
        extra = () if self.correction is None else (self.correction,)
        return combined_stderr(self.classical, *extra)


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
    residual_stderr: float       # floored at its terms' _rounding
    classical_violation: float   # E[(X-K)^+] + K - E[(K-X)^+] - x0
    violation_stderr: float
    minus_correction_mass: float  # -x0 * Qe(explosion), what the violation is
    mass_stderr: float


def parity_table(model: DiffusionModel, strikes: Sequence[float],
                 cfg: MCConfig) -> list[ParityRow]:
    """Put-call parity report with common random numbers across all legs."""
    # the claims first, so a bad strike is refused before the simulation
    if not strikes:
        raise ConfigError("the parity table needs at least one strike")
    pairs = {k: (make_claim("call", k), make_claim("put", k))
             for k in strikes if k != 0}
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
            call, put = (price(model, c, cfg, batches) for c in pairs[k])
        residual = call.total_dollar + k - put.total_dollar - x0
        violation = call.classical.mean + k - put.classical.mean - x0
        rows.append(ParityRow(
            strike=float(k), call=call, put=put,
            residual=residual, residual_stderr=max(residual_se, _rounding(
                call.total_dollar, k, put.total_dollar, x0)),
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
    # the claims first, so a bad strike is refused before the simulation
    if not strikes:
        raise ConfigError("the equivalence table needs at least one strike")
    claims = [(k, make_claim(a, k), make_claim(b, 1.0 / k)) for k in strikes
              for a, b in (("call", "dollar_put"), ("put", "dollar_call"))]
    primal, dual = make_batches(model, cfg)
    x0 = model.x0
    sides = []
    for k, a, b in claims:
        a_dollar = a.dollar_finite(primal.x)
        a_expl = euro_correction_values(a, dual)
        b_euro = euro_leg_values(b, dual)
        b_dev = devaluation_values(b, primal)
        with np.errstate(over="ignore"):    # a mean's sum may overflow
            lhs = float(a_dollar.mean()) + float(a_expl.mean()) * x0
            rhs = x0 * k * (float(b_euro.mean())
                            + float(b_dev.mean()) * (1.0 / x0))
        dollar = estimate_from_values(a_dollar - k * b_dev, primal.seed)
        euro = estimate_from_values(x0 * (k * b_euro - a_expl), dual.seed)
        se = max(combined_stderr(dollar, euro), _rounding(lhs, rhs, x0, k))
        sides.append((lhs, rhs, z_score(replace(dollar, stderr=se),
                                        replace(euro, stderr=0.0))))
    return [EquivalenceRow(float(k), *call, *put)
            for k, call, put in zip(strikes, sides[::2], sides[1::2])]


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
    se = max(ex.stderr, _rounding(model.x0, ex.mean, mass.mean))
    z = z_score(Estimate(defect, se, ex.n, ex.seed), mass)
    return DefectReport(defect, ex.stderr, mass.mean, mass.stderr, z,
                        strict=defect > 3.0 * se)


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
        y = np.full(m, dual.x0)
        for k in range(steps):
            z = gen.standard_normal(m)
            # no absorption and no sign handling: this is the estimator a
            # naive pricer would run; only y == 0 needs a division guard
            s = dual.sigma(np.where(y == 0.0, 1e-300, y), k * dt) * sqdt
            s *= z
            y += s
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
                    ns: Sequence[int], cfg: MCConfig) -> list[TailPoint]:
    """Naive dual running means at growing effort, capped per level.

    Each level grows the sample, the grid (4x) and the payoff cap (10 at the
    first level, 10x per level) together; a nonintegrable euro leg keeps
    climbing level after level (the truncated mean of a fat tail grows with
    the truncation) instead of settling.
    Advisory evidence for the analytic-infinity verdict, never a price.
    Raises ConfigError, before simulating, if MCConfig refuses a level.
    """
    levels = [replace(cfg, n=n, steps=cfg.steps * 4**i)
              for i, n in enumerate(sorted(ns))]
    out = []
    cap = 10.0
    for level in levels:
        vals = _naive_dual_values(model, claim, level.n, level.steps,
                                  dual_seed(cfg.seed) + level.steps)
        out.append(TailPoint(level.n, level.steps, cap,
                             float(np.minimum(vals, cap).mean())))
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
    """Euler estimates of E[X_T] against the exact scheme across grid levels.
    Raises ConfigError, before simulating, if there is no level or MCConfig
    refuses one."""
    if not levels:
        raise ConfigError("the convergence study needs at least one level")
    grids = [replace(cfg, scheme="euler_absorbed", steps=s) for s in levels]
    exact = simulate(model, replace(cfg, scheme="exact"))
    ref = estimate_from_values(exact.x, exact.seed)
    rows = []
    for grid in grids:
        b = simulate(model, grid)
        est = estimate_from_values(b.x, b.seed)
        rows.append(ConvergenceRow(grid.steps, est.mean, est.stderr,
                                   abs(est.mean - ref.mean)))
    return ref, rows
