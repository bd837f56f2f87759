"""Seeded Monte Carlo engine for the primal and dual simulations.

Paths are generated in fixed-size blocks; block i draws from its own SFC64
substream, seeded by a SeedSequence keyed by (seed, block index), and block
outputs are concatenated in block order.  Estimates are therefore
bit-identical for a given (seed, config) regardless of how many workers
process the blocks.

Absorption at zero is detected inside the Euler scheme through the per-step
Brownian-bridge crossing probability; explosion is never detected on the
primal side (the dollar measure does not see it) and is bookkept exclusively
as dual absorption.  The Euler kernel steps only the live set (the paths not
yet absorbed), decides absorption with the one test u < exp(-a) on the bridge
exponent a, and draws u only where a 53-bit uniform can resolve exp(-a),
which moves the law by at most 2^-53 per path-step (see euler_absorbed).
The exact scheme runs the model's own sampler (the catalog defines them);
this module holds no model's law.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..errors import InfiniteContribution, NumericalBlowup, SchemeUnsupported
from ..inputs import MCConfig
from .models import DiffusionModel, derive_dual_model

BLOCK = 8192


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
    """Mean and standard error of per-path values, each one whole-batch pass:
    the deviations are squared from the one mean in numpy's own order, so
    both equal `mean()` and `std(ddof=1) / sqrt(n)` bit for bit."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise InfiniteContribution(
            "functional evaluated to a non-finite value on a sampled path")
    n = values.shape[0]
    try:
        with np.errstate(over="raise"):
            mean = float(values.mean())
            dev = values - mean
            dev *= dev
            stderr = (math.sqrt(dev.sum() / (n - 1)) / math.sqrt(n)
                      if n > 1 else 0.0)
    except FloatingPointError as exc:
        raise InfiniteContribution(
            f"the mean or standard error of {n} finite values left the "
            f"float range ({exc})") from None
    return Estimate(mean, stderr, n, seed)


def combined_stderr(*estimates: Estimate) -> float:
    return math.hypot(*(e.stderr for e in estimates))


def _rounding(*terms: float) -> float:
    """64 ulps of the terms' magnitudes, the floor of an identity's stderr.
    Raises NumericalBlowup where the terms leave the float range."""
    try:
        floor = 2.0 ** -46 * math.fsum(map(abs, terms))
    except OverflowError:       # finite terms that sum past the float range
        floor = math.inf
    if not floor < math.inf:    # or nan, from inf * 0 or inf - inf
        raise NumericalBlowup(f"identity terms {terms} left the float range")
    return floor


def z_score(lhs: Estimate, rhs: Estimate) -> float:
    se = combined_stderr(lhs, rhs)
    diff = lhs.mean - rhs.mean
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


# ---------------------------------------------------------------------------
# random substreams
# ---------------------------------------------------------------------------

def block_generator(seed: int, block: int) -> np.random.Generator:
    """SFC64 stream for one path block: child `block` of the SeedSequence of
    the seed's low 128 bits.  The seed fills the 128-bit entropy pool before
    the block key is mixed in, so distinct (seed, block) keys never share a
    state, as list entropy [seed, block] would for (s, b) and (s + 2**32 b, 0).
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed & ((1 << 128) - 1), spawn_key=(block,))))


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
# the Euler scheme
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
        s = np.asarray(sigma(x, k * dt), dtype=float)   # overflow here raises
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # x' = x + (s sqdt) z, in that operation order; `sigma` may
            # return its argument, so s is never written to
            x_new = np.multiply(s, sqdt)
            x_new *= z
            x_new += x
            if not np.isfinite(x_new).all():
                raise NumericalBlowup(
                    f"step {k + 1}/{steps} left the float range on "
                    f"{int((~np.isfinite(x_new)).sum())} path(s)")
            # a = (x/s)(x'/s)(2/dt) is never nan: x' gives its sign, s == 0
            # +inf; 2 x x' / (s*s dt) is inf/inf once s*s overflows
            a = np.divide(x, s)
            a *= np.divide(x_new, s, out=z)
            a *= 2.0 / dt
            near = (a < BRIDGE_CUTOFF).nonzero()[0]
            p_hit = a[near]
            np.exp(np.negative(p_hit, out=p_hit), out=p_hit)
        dead = near[gen.random(near.size) < p_hit]
        if dead.size:
            hit[live[dead]] = (k + 1) * dt
            keep = np.ones(live.size, dtype=bool)
            keep[dead] = False
            live, x_new = live[keep], x_new[keep]
        x = x_new
    out = np.zeros(m)
    out[live] = x
    return out, hit


# ---------------------------------------------------------------------------
# simulation entry point
# ---------------------------------------------------------------------------

def _resolve_scheme(spec, scheme: str) -> str:
    if scheme == "auto":
        return "euler_absorbed" if spec.exact is None else "exact"
    if scheme == "euler_absorbed" and spec.exact_only:
        raise SchemeUnsupported(
            f"model {spec.name!r} is exact-only: its coefficient is singular "
            f"at the horizon, where the Euler scheme does not apply; use "
            f"scheme 'exact'")
    return scheme


def simulate(spec: DiffusionModel, cfg: MCConfig) -> TerminalBatch:
    """Terminal samples of the spec's rate from spec.x0 and the time each
    path hit zero; hit_infinity is all False.  The exact scheme calls the
    spec's own sampler, `spec.exact`, once per block; a spec without one
    raises SchemeUnsupported, and "auto" resolves to the Euler scheme for
    it.  A dual spec (derive_dual_model) gives Y's own batch, Y's hit times
    of zero included; make_batches forms its euro view.  Deterministic given
    (cfg.seed, cfg), independent of cfg.workers.
    """
    scheme = _resolve_scheme(spec, cfg.scheme)

    if scheme == "euler_absorbed":
        if spec.horizon / cfg.steps == 0.0:
            raise NumericalBlowup(
                f"the Euler step {spec.horizon!r} / {cfg.steps} underflows to 0")

        def body(gen, m):
            return euler_absorbed(gen, m, spec.sigma, spec.x0, spec.horizon,
                                  cfg.steps)
    else:   # "exact"; MCConfig admits no other scheme
        if spec.exact is None:
            raise SchemeUnsupported(f"model {spec.name!r} declares no exact scheme")

        def body(gen, m):
            return spec.exact(gen, m, spec.x0, spec.horizon)

    def run_block(gen, m):
        # numpy's error state is per thread, so it is set in the block's own
        # worker: an overflow in a sampler is an error, not a warning
        try:
            with np.errstate(over="raise"):
                return body(gen, m)
        except FloatingPointError as exc:
            raise NumericalBlowup(
                f"{scheme} simulation of {spec.name!r} left the float range "
                f"({exc})") from None

    values, hit = _run_blocks(cfg.n, cfg.seed, cfg.workers, run_block)
    if not np.isfinite(values).all():
        raise NumericalBlowup("simulated values left the float range")
    return TerminalBatch(values, hit, np.zeros(cfg.n, dtype=bool), cfg.seed)


def dump_batch_csv(batch: TerminalBatch, path) -> None:
    """Raw terminal samples as CSV columns (x_T, hit_zero_time, hit_infinity).

    Byte contract: each float is written as its shortest round-trip `repr`
    (`inf` for an exploded path), a nan hit time as an empty field, and the
    explosion flag as `0` or `1`.  Each BLOCK of rows (memory stays bounded)
    is one join of the x column's `repr`s, the only per-value Python the
    contract needs, with one tail per row, `,,0` or `,,1` by the flag, and a
    hit time's `repr` put between its commas where the time is not nan."""
    x = np.asarray(batch.x, dtype=float)
    hit = np.asarray(batch.hit_zero_time, dtype=float)
    tail = np.array([",,0\n", ",,1\n"], dtype=object)   # by the flag
    with open(path, "w") as fh:
        fh.write("x_T,hit_zero_time,hit_infinity\n")
        for lo in range(0, len(batch), BLOCK):
            hi = lo + BLOCK
            tails = tail.take(batch.hit_infinity[lo:hi]).tolist()
            for i in np.flatnonzero(~np.isnan(hit[lo:hi])).tolist():
                tails[i] = f",{float(hit[lo + i])!r}{tails[i][1:]}"
            cells = [""] * (2 * len(tails))
            cells[::2] = map(repr, x[lo:hi].tolist())
            cells[1::2] = tails
            fh.write("".join(cells))


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
    """Primal and dual batches on independent substreams of one seed; the
    dual batch is the euro view of Y = 1/X: X_T = inf with hit_infinity
    where Y hit zero, else 1/Y, with Y's values in `y` and no hit times.

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
    seed = dual_seed(cfg.seed)
    y = simulate(derive_dual_model(model), replace(cfg, seed=seed)).x
    exploded = y == 0.0
    with np.errstate(divide="ignore"):
        x = np.where(exploded, np.inf, 1.0 / y)
    dual = TerminalBatch(x, np.full(cfg.n, np.nan), exploded, seed, y=y)
    for arr in (primal.x, primal.hit_zero_time, primal.hit_infinity,
                x, dual.hit_zero_time, exploded, y):
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

    Returns the z-score of LHS - RHS, its stderr floored at the means'
    `_rounding`; |z| <= 3 in roughly 99.7% of runs when the identity holds.
    """
    primal, dual = make_batches(model, cfg)
    x, y = primal.x, dual.y
    lhs_vals = np.zeros(len(primal))
    pos = x > 0.0
    lhs_vals[pos] = _mapped(f, x[pos])
    # exploded paths have y == 0 and add nothing
    rhs_vals = np.zeros(len(dual))
    alive = y > 0.0
    ya = y[alive]
    rhs_vals[alive] = _mapped(f, 1.0 / ya) * ya
    lhs = estimate_from_values(lhs_vals, primal.seed)
    rhs = estimate_from_values(rhs_vals, dual.seed).scale(model.x0)
    se = max(lhs.stderr, _rounding(lhs.mean, rhs.mean))
    return CrossMeasureResult(z_score(replace(lhs, stderr=se), rhs), lhs, rhs)
