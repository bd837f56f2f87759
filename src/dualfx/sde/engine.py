"""Seeded Monte Carlo engine for the primal and dual simulations.

Paths are generated in fixed-size blocks; block i draws from a counter-based
Philox substream keyed by (seed, block index), and block outputs are
concatenated in block order.  Estimates are therefore bit-identical for a
given (seed, config) regardless of how many workers process the blocks.

Absorption at zero is detected without bias inside the Euler scheme through
the per-step Brownian-bridge crossing probability; explosion is never
detected on the primal side (the dollar measure does not see it) and is
bookkept exclusively as dual absorption.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (ConfigError, InfiniteContribution, NumericalBlowup,
                      SchemeUnsupported)
from .models import DiffusionModel, DualDiffusion

BLOCK = 8192

DOLLAR = "dollar"
EURO = "euro"

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
    measure: str
    model: str
    x: np.ndarray                  # X_T per path (inf where exploded)
    hit_zero_time: np.ndarray      # nan where X never hit zero
    hit_infinity: np.ndarray       # bool
    seed: int
    scheme: str
    steps: int
    horizon: float
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

def euler_absorbed(gen: np.random.Generator, m: int, sigma, start: float,
                   horizon: float, steps: int):
    """Euler-Maruyama with unbiased zero-absorption via bridge probabilities.

    A step is absorbed when it lands at or below zero, and otherwise with the
    Brownian-bridge crossing probability exp(-2 x x' / (sigma^2 dt)).  Any
    step leaving the representable float range raises NumericalBlowup.
    """
    dt = horizon / steps
    sqdt = math.sqrt(dt)
    x = np.full(m, float(start))
    alive = np.ones(m, dtype=bool)
    hit = np.full(m, np.nan)
    for k in range(steps):
        t = k * dt
        z = gen.standard_normal(m)
        u = gen.random(m)
        # absorbed paths are masked out; sigma never sees the boundary state
        s = np.asarray(sigma(np.where(alive, x, start), t), dtype=float)
        if s.shape != x.shape:
            s = np.broadcast_to(s, x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = np.where(alive, x + s * sqdt * z, x)
        blown = alive & ~np.isfinite(x_new)
        if blown.any():
            raise NumericalBlowup(
                f"step {k + 1}/{steps} left the float range on "
                f"{int(blown.sum())} path(s)")
        crossed = alive & (x_new <= 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            var = s * s * dt
            p_hit = np.exp(-2.0 * x * x_new / var)
        bridged = alive & (x_new > 0.0) & (var > 0.0) & (u < p_hit)
        absorbed_now = crossed | bridged
        hit[absorbed_now] = (k + 1) * dt
        x = np.where(absorbed_now, 0.0, x_new)
        alive &= ~absorbed_now
    return x, hit


def _exact_bes3_reciprocal(gen, m, start, horizon, params):
    """X = 1/||a e1 + W_T|| with a = 1/x0: reciprocal Bessel(3) terminal law."""
    a = 1.0 / start
    g = gen.standard_normal((m, 3))
    sq = math.sqrt(horizon)
    r = np.sqrt((a + sq * g[:, 0]) ** 2 + horizon * (g[:, 1] ** 2 + g[:, 2] ** 2))
    return 1.0 / r, np.full(m, np.nan)


def _exact_absorbed_bm(gen, m, start, horizon, params):
    """Absorbed Brownian motion: exact first-passage time, then the terminal
    value of survivors from the killed density by rejection."""
    g = gen.standard_normal(m)
    with np.errstate(divide="ignore"):
        tau = start * start / (g * g)
    absorbed = tau <= horizon
    x = np.zeros(m)
    hit = np.where(absorbed, tau, np.nan)
    todo = np.flatnonzero(~absorbed)
    sq = math.sqrt(horizon)
    while todo.size:
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
        scheme_id = "euler_absorbed"
    else:   # "exact"; MCConfig admits no other scheme
        sid = spec.exact_scheme
        if sid not in EXACT_SAMPLERS:
            raise SchemeUnsupported(f"model {spec.name!r} declares no exact scheme")
        sampler = EXACT_SAMPLERS[sid]

        def body(gen, m):
            return sampler(gen, m, start, spec.horizon, spec.params)
        scheme_id = f"exact_{sid}"

    values, hit = _run_blocks(cfg.n, cfg.seed, cfg.workers, body)
    if not np.isfinite(values).all():
        raise NumericalBlowup("simulated values left the float range")

    if is_dual:
        exploded = values == 0.0
        with np.errstate(divide="ignore"):
            x = np.where(exploded, np.inf, 1.0 / values)
        batch = TerminalBatch(EURO, spec.name, x, np.full(cfg.n, np.nan),
                              exploded, cfg.seed, scheme_id, cfg.steps,
                              spec.horizon, y=values)
    else:
        batch = TerminalBatch(DOLLAR, spec.name, values, hit,
                              np.zeros(cfg.n, dtype=bool), cfg.seed,
                              scheme_id, cfg.steps, spec.horizon)
    _assert_measure_nulls(batch)
    return batch


def _assert_measure_nulls(batch: TerminalBatch) -> None:
    """The measure running the simulation never sees its own null events."""
    if batch.measure == DOLLAR:
        if batch.hit_infinity.any() or not np.isfinite(batch.x).all():
            raise AssertionError("primal simulation produced an explosion")
    else:
        if not np.isnan(batch.hit_zero_time).all():
            raise AssertionError("dual simulation produced a devaluation time")


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
# cross-measure consistency
# ---------------------------------------------------------------------------

DUAL_SEED_SALT = 0x9E3779B97F4A7C15


def dual_seed(seed: int) -> int:
    """Independent substream key for the dual leg of a paired simulation."""
    return (seed ^ DUAL_SEED_SALT) & ((1 << 63) - 1)


@dataclass(frozen=True)
class CrossMeasureResult:
    z: float
    lhs: Estimate   # E_Q$[f(X_T) 1{X_T > 0}]
    rhs: Estimate   # x0 E_Qe[(f(X_T)/X_T) 1{1/X_T > 0}]


def cross_measure_check(model: DiffusionModel, f: Callable[[float], float],
                        cfg: MCConfig) -> CrossMeasureResult:
    """Two-sided estimate of the change-of-numeraire identity for bounded f.

    Returns the z-score of LHS - RHS; |z| <= 3 in roughly 99.7% of runs when
    the identity holds.
    """
    from .models import derive_dual_model

    primal = simulate(model, cfg)
    dual = simulate(derive_dual_model(model),
                    MCConfig(cfg.n, cfg.steps, dual_seed(cfg.seed),
                             cfg.scheme, cfg.workers))
    # f is called on Python floats: a numpy scalar costs more per call
    lhs_vals = np.array([f(v) if v > 0.0 else 0.0 for v in primal.x.tolist()])
    rhs_vals = np.where(dual.hit_infinity, 0.0,
                        np.array([f(1.0 / y) * y if y > 0.0 else 0.0
                                  for y in dual.y.tolist()]))
    lhs = estimate_from_values(lhs_vals, primal.seed)
    rhs = estimate_from_values(rhs_vals, dual.seed).scale(model.x0)
    return CrossMeasureResult(z_score(lhs, rhs), lhs, rhs)
