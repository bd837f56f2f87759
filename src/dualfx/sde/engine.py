"""Seeded Monte Carlo engine for the primal and dual simulations.

Paths are generated in fixed-size blocks; block i draws from a counter-based
Philox substream keyed by (seed, block index), and block outputs are
concatenated in block order.  Estimates are therefore bit-identical for a
given (seed, config) regardless of how many workers process the blocks.

Absorption at zero is detected inside the Euler scheme through the per-step
Brownian-bridge crossing probability; explosion is never detected on the
primal side (the dollar measure does not see it) and is bookkept exclusively
as dual absorption.  The Euler kernel steps only the live set (the paths not
yet absorbed), decides absorption with the one test u < exp(-a) on the bridge
exponent a, and draws u only where a 53-bit uniform can resolve exp(-a),
which moves the law by at most 2^-53 per path-step (see euler_absorbed).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import (ConfigError, InfiniteContribution, NumericalBlowup,
                      SchemeUnsupported)
from .models import DiffusionModel, DualDiffusion, derive_dual_model

BLOCK = 8192

SCHEMES = ("auto", "euler_absorbed", "exact")


@dataclass(frozen=True)
class MCConfig:
    n: int = 100_000
    steps: int = 64
    seed: int = 0
    scheme: str = "auto"     # one of SCHEMES
    workers: int = 1

    def __post_init__(self):
        if self.n < 1 or self.steps < 1:
            raise ConfigError("n and steps must be >= 1")
        if self.scheme not in SCHEMES:
            raise SchemeUnsupported(
                f"unknown scheme {self.scheme!r}; known: {', '.join(SCHEMES)}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(
                f"workers must be an int >= 1, got {self.workers!r}")


@dataclass
class TerminalBatch:
    x: np.ndarray                  # X_T per path (inf where exploded)
    hit_zero_time: np.ndarray      # nan where X never hit zero
    hit_infinity: np.ndarray       # bool
    seed: int
    y: np.ndarray | None = None    # raw reciprocal-rate values, euro batches

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int
    seed: int

    def scale(self, a: float) -> "Estimate":
        return Estimate(self.mean * a, self.stderr * abs(a), self.n, self.seed)


def estimate_from_values(values: np.ndarray, seed: int) -> Estimate:
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InfiniteContribution(
            "functional evaluated to a non-finite value on a sampled path")
    n = values.shape[0]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean, stderr, n, seed)


def combined_stderr(*estimates: Estimate) -> float:
    return math.hypot(*(e.stderr for e in estimates))


def z_score(lhs: Estimate, rhs: Estimate) -> float:
    se = combined_stderr(lhs, rhs)
    diff = lhs.mean - rhs.mean
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


# ---------------------------------------------------------------------------
# random substreams
# ---------------------------------------------------------------------------

def block_generator(seed: int, block: int) -> np.random.Generator:
    """Philox stream for one path block; blocks are disjoint counter ranges."""
    return np.random.Generator(
        np.random.Philox(key=seed & ((1 << 128) - 1), counter=[0, 0, block, 0]))


def _run_blocks(n: int, seed: int, workers: int, body):
    """body(gen, m) -> tuple of arrays; concatenated in block order."""
    blocks = [(i, min(BLOCK, n - i * BLOCK))
              for i in range((n + BLOCK - 1) // BLOCK)]

    def run_one(arg):
        i, m = arg
        return body(block_generator(seed, i), m)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_one, blocks))
    else:
        parts = [run_one(b) for b in blocks]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

# a uniform u from Generator.random is a multiple of 2^-53, so u < p can fire
# only with probability 2^-53 when 0 < p < 2^-53: a bridge exponent at or
# above 53 ln 2 cannot be resolved by a uniform and draws none
BRIDGE_CUTOFF = 53.0 * math.log(2.0)


def euler_absorbed(gen: np.random.Generator, m: int, sigma, start: float,
                   horizon: float, steps: int):
    """Euler-Maruyama with zero-absorption via Brownian-bridge probabilities
    (the killed-diffusion scheme of Gobet, Stoch. Proc. Appl. 87, 2000).

    Only the live set is stepped: the indices of the paths not yet absorbed
    and their states.  Each step draws one normal per live path and calls
    `sigma` on live states only, which are strictly positive for a positive
    start.  With the bridge exponent a = 2 x x' / (sigma^2 dt), a step is
    absorbed when u < exp(-a).  A step landing at or below zero has a <= 0,
    so the same test absorbs it surely.  The uniform u is drawn only for the
    live paths with a < BRIDGE_CUTOFF = 53 ln 2, i.e. crossing probability
    >= 2^-53; below that no 53-bit uniform resolves the probability, and
    skipping the draw moves the law of the scheme by at most 2^-53 per
    path-step.  How many draws a step takes depends only on the block's own
    paths, so a block's output is a function of (seed, block) for any number
    of workers.

    Absorbed paths end at 0 with hit time (k+1) dt for a crossing in step k;
    survivors end at their last state with a nan hit time.  Any step leaving
    the representable float range raises NumericalBlowup.
    """
    dt = horizon / steps
    sqdt = math.sqrt(dt)
    live = np.arange(m)
    x = np.full(m, float(start))
    hit = np.full(m, np.nan)
    for k in range(steps):
        if not live.size:
            break
        z = gen.standard_normal(live.size)
        s = np.asarray(sigma(x, k * dt), dtype=float)
        if s.shape != x.shape:
            s = np.broadcast_to(s, x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = x + s * sqdt * z
        if not np.isfinite(x_new).all():
            raise NumericalBlowup(
                f"step {k + 1}/{steps} left the float range on "
                f"{int((~np.isfinite(x_new)).sum())} path(s)")
        # a computed as (x/s)(x'/s)(2/dt) is never nan: its sign is the sign
        # of x' and s == 0 gives +inf, where 2 x x' / (s*s dt) turns nan
        # (inf/inf) once s*s overflows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = (x / s) * (x_new / s) * (2.0 / dt)
            near = np.flatnonzero(a < BRIDGE_CUTOFF)
            p_hit = np.exp(-a[near])
        dead = near[gen.random(near.size) < p_hit]
        hit[live[dead]] = (k + 1) * dt
        live, x = np.delete(live, dead), np.delete(x_new, dead)
    out = np.zeros(m)
    out[live] = x
    return out, hit


def _exact_bes3_reciprocal(gen, m, start, horizon, params):
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


def _exact_absorbed_bm(gen, m, start, horizon, params):
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
        ok = (b > 0.0) & (u < -np.expm1(-2.0 * start * b / horizon))
        x[todo[ok]] = b[ok]
        todo = todo[~ok]
    return x, hit


def _exact_gbm(gen, m, start, horizon, params):
    vol = params["vol"]
    w = math.sqrt(horizon) * gen.standard_normal(m)
    return start * np.exp(vol * w - 0.5 * vol * vol * horizon), np.full(m, np.nan)


def _exact_singular(gen, m, start, horizon, params):
    """Time-changed Brownian motion that devalues before the horizon almost
    surely: S = T (1 - exp(-tau)) with tau the exact BM first-passage time."""
    g = gen.standard_normal(m)
    with np.errstate(divide="ignore"):
        tau = start * start / (g * g)
    hit = horizon * -np.expm1(-tau)
    return np.zeros(m), hit


def _exact_singular_dual(gen, m, start, horizon, params):
    """Dual of the singular model: the reciprocal rate is absorbed at zero by
    the horizon almost surely (the rate explodes on every path)."""
    return np.zeros(m), np.full(m, np.nan)


EXACT_SAMPLERS = {
    "bes3_reciprocal": _exact_bes3_reciprocal,
    "absorbed_bm": _exact_absorbed_bm,
    "gbm": _exact_gbm,
    "singular_exact": _exact_singular,
    "singular_dual_exact": _exact_singular_dual,
}


# ---------------------------------------------------------------------------
# simulation entry point
# ---------------------------------------------------------------------------

def _resolve_scheme(spec, scheme: str) -> str:
    if scheme == "auto":
        return "exact" if spec.exact_scheme else "euler_absorbed"
    if scheme == "euler_absorbed" and spec.exact_only:
        raise SchemeUnsupported(
            f"model {spec.name!r} is exact-only: its coefficient is singular "
            f"at the horizon, where the Euler scheme does not apply; use "
            f"scheme 'exact'")
    return scheme


def simulate(spec: DiffusionModel | DualDiffusion, cfg: MCConfig) -> TerminalBatch:
    """Terminal samples of X (primal spec) or of Y = 1/X (dual spec).

    Dual batches are reported through the implied X samples: absorption of Y
    at zero sets hit_infinity and X_T = inf.  Deterministic given (cfg.seed,
    cfg), independent of cfg.workers.
    """
    is_dual = isinstance(spec, DualDiffusion)
    start = spec.y0 if is_dual else spec.x0
    scheme = _resolve_scheme(spec, cfg.scheme)

    if scheme == "euler_absorbed":
        def body(gen, m):
            return euler_absorbed(gen, m, spec.sigma, start, spec.horizon,
                                  cfg.steps)
    else:   # "exact"; MCConfig admits no other scheme
        sid = spec.exact_scheme
        if sid not in EXACT_SAMPLERS:
            raise SchemeUnsupported(f"model {spec.name!r} declares no exact scheme")
        sampler = EXACT_SAMPLERS[sid]

        def body(gen, m):
            return sampler(gen, m, start, spec.horizon, spec.params)

    values, hit = _run_blocks(cfg.n, cfg.seed, cfg.workers, body)
    if not np.isfinite(values).all():
        raise NumericalBlowup("simulated values left the float range")

    if is_dual:
        exploded = values == 0.0
        with np.errstate(divide="ignore"):
            x = np.where(exploded, np.inf, 1.0 / values)
        return TerminalBatch(x, np.full(cfg.n, np.nan), exploded, cfg.seed,
                             y=values)
    return TerminalBatch(values, hit, np.zeros(cfg.n, dtype=bool), cfg.seed)


def dump_batch_csv(batch: TerminalBatch, path) -> None:
    """Raw terminal samples as CSV columns (x_T, hit_zero_time, hit_infinity).

    Byte contract: each float is written as its shortest round-trip `repr`
    (`inf` for an exploded path), a nan hit time as an empty field, and the
    explosion flag as `0` or `1`.  The rows are formatted a column at a time
    and written BLOCK rows per write, so memory stays bounded for any batch
    size.
    """
    x = np.asarray(batch.x, dtype=float)
    hit = np.asarray(batch.hit_zero_time, dtype=float)
    with open(path, "w") as fh:
        fh.write("x_T,hit_zero_time,hit_infinity\n")
        for lo in range(0, len(batch), BLOCK):
            hi = lo + BLOCK
            xs = map(repr, x[lo:hi].tolist())
            ts = ["" if math.isnan(t) else repr(t)
                  for t in hit[lo:hi].tolist()]
            flags = np.where(batch.hit_infinity[lo:hi], "1", "0").tolist()
            fh.write("\n".join(map(",".join, zip(xs, ts, flags))) + "\n")


# ---------------------------------------------------------------------------
# the paired simulation
# ---------------------------------------------------------------------------

DUAL_SEED_SALT = 0x9E3779B97F4A7C15


def dual_seed(seed: int) -> int:
    """Independent substream key for the dual leg of a paired simulation."""
    return (seed ^ DUAL_SEED_SALT) & ((1 << 63) - 1)


# (model, config, batches) of the last make_batches call: stored by one
# assignment of a whole tuple and read once per lookup, so a thread sees
# either the old entry or the new one
_last_pair = None


def make_batches(model: DiffusionModel, cfg: MCConfig
                 ) -> tuple[TerminalBatch, TerminalBatch]:
    """Primal and dual batches on independent substreams of one seed.

    Only the last pair is kept.  A call with the same model object (`is`)
    and an equal config, every field of MCConfig including `workers`,
    returns that very pair without simulating, so the price, the tables and
    the cross-check of one (model, config) share one simulation.  Every
    array of the returned batches is read-only, since callers share them.
    """
    global _last_pair
    last = _last_pair
    if last is not None and last[0] is model and last[1] == cfg:
        return last[2]
    primal = simulate(model, cfg)
    dual = simulate(derive_dual_model(model), replace(cfg, seed=dual_seed(cfg.seed)))
    for batch in (primal, dual):
        for arr in (batch.x, batch.hit_zero_time, batch.hit_infinity, batch.y):
            if arr is not None:
                arr.flags.writeable = False
    pair = (primal, dual)
    _last_pair = (model, cfg, pair)
    return pair


# ---------------------------------------------------------------------------
# cross-measure consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossMeasureResult:
    z: float
    lhs: Estimate   # E_Q$[f(X_T) 1{X_T > 0}]
    rhs: Estimate   # x0 E_Qe[(f(X_T)/X_T) 1{1/X_T > 0}]


def _mapped(f: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    """f over v, called on Python floats: a numpy scalar costs more per call."""
    return np.fromiter(map(f, v.tolist()), float, v.size)


def cross_measure_check(model: DiffusionModel, f: Callable[[float], float],
                        cfg: MCConfig) -> CrossMeasureResult:
    """Two-sided estimate of the change-of-numeraire identity for bounded f,
    on the pair make_batches gives for (model, cfg).

    Returns the z-score of LHS - RHS; |z| <= 3 in roughly 99.7% of runs when
    the identity holds.
    """
    primal, dual = make_batches(model, cfg)
    x, y = primal.x, dual.y
    lhs_vals = np.zeros(len(primal))
    pos = x > 0.0
    lhs_vals[pos] = _mapped(f, x[pos])
    # exploded paths have y == 0 and add nothing
    rhs_vals = np.zeros(len(dual))
    alive = y > 0.0
    rhs_vals[alive] = _mapped(f, 1.0 / y[alive]) * y[alive]
    lhs = estimate_from_values(lhs_vals, primal.seed)
    rhs = estimate_from_values(rhs_vals, dual.seed).scale(model.x0)
    return CrossMeasureResult(z_score(lhs, rhs), lhs, rhs)
