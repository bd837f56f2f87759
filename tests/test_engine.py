"""Simulation engine: schemes, determinism, absorption, error channels."""

import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from dualfx import (ConfigError, DiffusionModel, InfiniteContribution,
                    MCConfig, NumericalBlowup, SchemeUnsupported,
                    derive_dual_model, simulate)
from dualfx.catalog import get_model
from dualfx.sde import (BLOCK, cross_measure_check, dual_seed,
                        estimate_from_values, z_score)
from dualfx.sde import engine
from dualfx.sde.engine import (MAX_REJECTION_ROUNDS, block_generator,
                               dump_batch_csv, euler_absorbed, make_batches)
from tests.test_oracles import DUAL_ABSORPTION, EXPECTED_X


def test_seed_determinism_across_workers():
    model = get_model("recip_bessel").model
    for scheme in ("exact", "euler_absorbed"):
        cfg1 = MCConfig(n=30_000, steps=16, seed=42, scheme=scheme, workers=1)
        cfg4 = MCConfig(n=30_000, steps=16, seed=42, scheme=scheme, workers=4)
        b1, b4 = simulate(model, cfg1), simulate(model, cfg4)
        assert np.array_equal(b1.x, b4.x)
        assert np.array_equal(b1.hit_zero_time, b4.hit_zero_time,
                              equal_nan=True)
        e1 = estimate_from_values(b1.x, b1.seed)
        e4 = estimate_from_values(b4.x, b4.seed)
        assert (e1.mean, e1.stderr) == (e4.mean, e4.stderr)


def test_block_substreams_extend_consistently():
    """Growing n by whole blocks only appends paths; the prefix is identical."""
    from dualfx.sde import BLOCK
    model = get_model("stopped_bm").model
    small = simulate(model, MCConfig(n=2 * BLOCK, seed=9))
    large = simulate(model, MCConfig(n=3 * BLOCK, seed=9))
    assert np.array_equal(small.x, large.x[:2 * BLOCK])
    again = simulate(model, MCConfig(n=2 * BLOCK, seed=9))
    assert np.array_equal(small.x, again.x)


def test_euler_block_substreams_extend_consistently():
    """The live-set kernel keeps the per-block substream contract: growing n
    by whole blocks only appends Euler paths."""
    model = get_model("qnv(1,0,0)").model
    for spec in (model, derive_dual_model(model)):
        small = simulate(spec, MCConfig(n=2 * BLOCK, steps=16, seed=9,
                                        scheme="euler_absorbed"))
        large = simulate(spec, MCConfig(n=3 * BLOCK, steps=16, seed=9,
                                        scheme="euler_absorbed", workers=2))
        assert np.array_equal(small.x, large.x[:2 * BLOCK])
        assert np.array_equal(small.hit_zero_time,
                              large.hit_zero_time[:2 * BLOCK], equal_nan=True)


def test_exact_recip_bessel_matches_oracle():
    model = get_model("recip_bessel").model
    b = simulate(model, MCConfig(n=100_000, seed=101))
    est = estimate_from_values(b.x, b.seed)
    assert abs(est.mean - EXPECTED_X) < 4 * est.stderr
    assert not b.hit_infinity.any()
    assert np.isnan(b.hit_zero_time).all()     # strictly positive rate


def test_dual_absorption_matches_oracle():
    dual = derive_dual_model(get_model("recip_bessel").model)
    b = simulate(dual, MCConfig(n=100_000, seed=55))
    est = estimate_from_values(b.hit_infinity.astype(float), b.seed)
    assert abs(est.mean - DUAL_ABSORPTION) < 4 * est.stderr
    assert np.isnan(b.hit_zero_time).all()     # euro measure never devalues
    assert np.isinf(b.x[b.hit_infinity]).all()
    assert (b.y[~b.hit_infinity] > 0).all()


def test_euler_bridge_absorption_is_unbiased_for_bm():
    """Constant volatility: bridge detection makes euler absorption exact
    even on a coarse grid."""
    model = get_model("stopped_bm").model
    b = simulate(model, MCConfig(n=100_000, steps=8, seed=3,
                                 scheme="euler_absorbed"))
    est = estimate_from_values((b.x == 0.0).astype(float), b.seed)
    assert abs(est.mean - DUAL_ABSORPTION) < 4 * est.stderr
    hit = b.hit_zero_time[b.x == 0.0]
    assert not np.isnan(hit).any() and (hit <= 1.0).all()


def test_euler_hit_time_distribution_matches_first_passage_law():
    """Bridge detection records a hit inside (t_{k-1}, t_k] at t_k, so the
    empirical hit-time CDF at grid points must match 2 Phi(-x0/sqrt(t))."""
    from scipy.stats import norm
    model = get_model("stopped_bm").model
    b = simulate(model, MCConfig(n=100_000, steps=16, seed=29,
                                 scheme="euler_absorbed"))
    for t in (0.25, 0.5, 0.75, 1.0):
        want = 2.0 * norm.cdf(-1.0 / math.sqrt(t))
        frac = np.mean(np.nan_to_num(b.hit_zero_time, nan=np.inf) <= t)
        se = math.sqrt(want * (1 - want) / len(b))
        assert abs(frac - want) < 4 * se, t


def test_absorbed_bm_survivor_mass_is_martingale_exact():
    """E[B_T ; never hit zero] equals the start point by optional stopping."""
    model = get_model("stopped_bm").model
    for scheme in ("exact", "euler_absorbed"):
        b = simulate(model, MCConfig(n=200_000, steps=16, seed=47,
                                     scheme=scheme))
        est = estimate_from_values(b.x, b.seed)   # absorbed paths contribute 0
        assert abs(est.mean - 1.0) < 4 * est.stderr, scheme


def test_euler_sigma_sees_only_live_positive_states():
    """sigma is called once per step on exactly the paths not yet absorbed,
    all strictly positive."""
    model = get_model("qnv(1,0,0)").model
    steps, m = 32, 4096
    dt = model.horizon / steps
    for spec, start in ((model, model.x0),
                        (derive_dual_model(model), 1.0 / model.x0)):
        seen = []

        def sigma(x, t):
            seen.append((t, x.copy()))
            return spec.sigma(x, t)

        x, hit = euler_absorbed(block_generator(4, 0), m, sigma, start,
                                spec.horizon, steps)
        assert 0 < (x == 0.0).sum() < m
        assert [t for t, _ in seen] == [k * dt for k in range(steps)]
        for k, (_, states) in enumerate(seen):
            absorbed = np.nan_to_num(hit, nan=np.inf) <= k * dt
            assert states.size == m - absorbed.sum()
            assert (states > 0.0).all()
        assert (seen[0][1] == start).all()


@pytest.mark.parametrize("name", ["recip_bessel", "stopped_bm",
                                  "exp_martingale_baseline", "qnv(1,0,0)",
                                  "qnv(0.5,0.2,0.3)"])
def test_euler_zero_exactly_when_hit(name):
    """A path ends at 0 exactly when it has a finite hit time on the grid.
    (singular_timechange is left out: its coefficient is singular at T, where
    the Euler scheme does not apply.)"""
    model = get_model(name).model
    steps = 16
    grid = model.horizon / steps * np.arange(1, steps + 1)
    for spec, start in ((model, model.x0),
                        (derive_dual_model(model), 1.0 / model.x0)):
        x, hit = euler_absorbed(block_generator(11, 0), BLOCK, spec.sigma,
                                start, spec.horizon, steps)
        assert np.array_equal(x == 0.0, np.isfinite(hit)), spec.name
        assert (x >= 0.0).all()
        assert np.isin(hit[np.isfinite(hit)], grid).all()


def test_euler_dual_explosion_mass_matches_reflection_formula():
    """qnv(1,0,0) has the dual coefficient 1: the reciprocal rate is Brownian
    motion, and bridged Euler absorbs it with mass 2 Phi(-1) by T."""
    dual = derive_dual_model(get_model("qnv(1,0,0)").model)
    b = simulate(dual, MCConfig(n=100_000, steps=16, seed=77,
                                scheme="euler_absorbed"))
    e = estimate_from_values(b.hit_infinity.astype(float), b.seed)
    assert abs(e.mean - DUAL_ABSORPTION) < 3 * e.stderr


def test_exact_absorbed_bm_rejection_loop_is_bounded():
    """A start far below sqrt(horizon) makes each rejection round accept a
    survivor with probability ~8e-5; the sampler raises instead of looping."""
    model = get_model("stopped_bm", x0=1e-4).model
    with pytest.raises(SchemeUnsupported,
                       match=rf"left after {MAX_REJECTION_ROUNDS} rejection "
                             r"rounds \(start=0\.0001, horizon=1\.0\)"):
        simulate(model, MCConfig(n=100_000, seed=0, scheme="exact"))


def test_zero_volatility_paths_are_constant():
    model = DiffusionModel("flat", lambda x, t: np.zeros_like(x), 2.0, 1.0)
    b = simulate(model, MCConfig(n=1000, steps=4, seed=0,
                                 scheme="euler_absorbed"))
    assert (b.x == 2.0).all()
    assert np.isnan(b.hit_zero_time).all()


def test_numerical_blowup_is_reported():
    model = DiffusionModel("wild", lambda x, t: np.full_like(x, 1e308),
                           1.0, 1.0)
    with pytest.raises(NumericalBlowup):
        simulate(model, MCConfig(n=4096, steps=2, seed=1,
                                 scheme="euler_absorbed"))


def test_exact_scheme_requires_declaration():
    model = get_model("qnv(1,0,0)").model
    with pytest.raises(SchemeUnsupported):
        simulate(model, MCConfig(n=10, scheme="exact"))
    with pytest.raises(SchemeUnsupported):
        simulate(get_model("recip_bessel").model,
                 MCConfig(n=10, scheme="exact_gbm"))
    with pytest.raises(SchemeUnsupported):
        simulate(get_model("recip_bessel").model,
                 MCConfig(n=10, scheme="bogus"))


def test_mcconfig_validates_scheme_and_workers():
    with pytest.raises(SchemeUnsupported):
        MCConfig(scheme="bogus")
    for workers in (0, -3, 1.5, "2", None):
        with pytest.raises(ConfigError):
            MCConfig(workers=workers)
    for bad in ({"n": 0}, {"steps": 0}):
        with pytest.raises(ConfigError):
            MCConfig(**bad)
    assert MCConfig(scheme="exact", workers=2).workers == 2


def test_qnv_euler_matches_recip_bessel_dynamics():
    cfg = MCConfig(n=20_000, steps=64, seed=12, scheme="euler_absorbed")
    a = simulate(get_model("recip_bessel").model, cfg)
    b = simulate(get_model("qnv(1,0,0)").model, cfg)
    assert np.array_equal(a.x, b.x)


def test_estimate_basics_and_infinite_contribution():
    model = get_model("recip_bessel").model
    b = simulate(model, MCConfig(n=500, seed=2))
    e = estimate_from_values(np.ones(len(b)), b.seed)
    assert e.mean == 1.0 and e.stderr == 0.0 and e.n == 500
    dual = simulate(derive_dual_model(model), MCConfig(n=2000, seed=2))
    with pytest.raises(InfiniteContribution):
        estimate_from_values(dual.x, dual.seed)   # explosions contribute inf
    # the inf*0 convention applied to the values keeps them finite
    e2 = estimate_from_values(np.where(dual.hit_infinity, 0.0, dual.x),
                              dual.seed)
    assert math.isfinite(e2.mean)


def test_estimate_dual_absorption_indicator():
    dual = simulate(derive_dual_model(get_model("recip_bessel").model),
                    MCConfig(n=50_000, seed=5))
    e = estimate_from_values(dual.hit_infinity.astype(float), dual.seed)
    assert abs(e.mean - DUAL_ABSORPTION) < 4 * e.stderr


def test_terminal_sample_view():
    b = simulate(get_model("singular_timechange").model,
                 MCConfig(n=64, seed=5))
    assert b.x[0] == 0.0
    assert 0.0 < b.hit_zero_time[0] <= 1.0
    assert not b.hit_infinity[0]
    assert len(b) == len(b.x) == len(b.hit_zero_time) \
        == len(b.hit_infinity) == 64


def test_cross_measure_identity():
    model = get_model("recip_bessel").model
    cfg = MCConfig(n=60_000, seed=31)
    for f in (lambda x: 1.0, lambda x: min(x, 1.0), lambda x: float(x > 1.0)):
        r = cross_measure_check(model, f, cfg)
        assert abs(r.z) <= 3.0


def test_cross_measure_degenerate_and_singular():
    model = get_model("recip_bessel").model
    r = cross_measure_check(model, lambda x: 0.0, MCConfig(n=5000, seed=7))
    assert r.z == 0.0
    sing = get_model("singular_timechange").model
    r2 = cross_measure_check(sing, lambda x: min(x, 1.0),
                             MCConfig(n=5000, seed=8))
    assert r2.lhs.mean == 0.0 and r2.rhs.mean == 0.0 and r2.z == 0.0


def test_dual_seed_differs():
    assert dual_seed(7) != 7
    assert dual_seed(dual_seed(7)) != dual_seed(7)


@pytest.mark.parametrize("name", ["recip_bessel", "stopped_bm"])
def test_cross_measure_check_matches_numpy_reference_bitwise(name):
    model = get_model(name).model
    cfg = MCConfig(n=20_000, seed=23)
    arg_types = set()

    def f(x):
        arg_types.add(type(x))
        return min(x, 1.0)

    r = cross_measure_check(model, f, cfg)
    assert arg_types == {float}
    primal = simulate(model, cfg)
    dual = simulate(derive_dual_model(model),
                    replace(cfg, seed=dual_seed(cfg.seed)))
    x, y = primal.x, dual.y
    with np.errstate(divide="ignore"):
        rhs_vals = np.where(y > 0.0, np.minimum(1.0 / y, 1.0) * y, 0.0)
    lhs = estimate_from_values(np.where(x > 0.0, np.minimum(x, 1.0), 0.0),
                               primal.seed)
    rhs = estimate_from_values(rhs_vals, dual.seed).scale(model.x0)
    assert r.lhs == lhs and r.rhs == rhs and r.z == z_score(lhs, rhs)


def csv_oracle(batch) -> bytes:
    """The row-at-a-time formatter that dump_batch_csv must match byte for
    byte."""
    rows = ["x_T,hit_zero_time,hit_infinity\n"]
    for i in range(len(batch)):
        t = batch.hit_zero_time[i]
        rows.append(f"{float(batch.x[i])!r},"
                    f"{'' if math.isnan(t) else repr(float(t))},"
                    f"{int(batch.hit_infinity[i])}\n")
    return "".join(rows).encode()


def test_dump_batch_csv_matches_row_oracle(tmp_path):
    path = tmp_path / "batch.csv"
    # nan hit, finite hit, exploded (inf) rate, devalued (zero) rate
    covered = np.zeros(4, dtype=bool)
    for name, scheme in (("recip_bessel", "exact"), ("stopped_bm", "exact"),
                         ("singular_timechange", "exact"),
                         ("exp_martingale_baseline", "exact"),
                         ("qnv(1,0,0)", "euler_absorbed")):
        model = get_model(name).model
        for n in (1, BLOCK, BLOCK + 3):
            cfg = MCConfig(n=n, steps=16, seed=n, scheme=scheme)
            for spec in (model, derive_dual_model(model)):
                batch = simulate(spec, cfg)
                dump_batch_csv(batch, path)
                assert path.read_bytes() == csv_oracle(batch), (name, n, spec)
                t = batch.hit_zero_time
                covered |= [np.isnan(t).any(), np.isfinite(t).any(),
                            np.isinf(batch.x).any(), (batch.x == 0.0).any()]
    assert covered.all()


def test_euler_refused_on_exact_only_model():
    """sigma of singular_timechange is singular at T: Euler would report
    E[X_T] near 1 where the truth is 0, so the pair is refused."""
    model = get_model("singular_timechange").model
    assert model.exact_only and derive_dual_model(model).exact_only
    cfg = MCConfig(n=64, seed=1, scheme="euler_absorbed")
    for spec in (model, derive_dual_model(model)):
        with pytest.raises(SchemeUnsupported, match="exact-only"):
            simulate(spec, cfg)
    with pytest.raises(SchemeUnsupported):
        make_batches(model, cfg)
    for scheme in ("auto", "exact"):
        assert (simulate(model, replace(cfg, scheme=scheme)).x == 0.0).all()


def test_make_batches_returns_the_last_pair_while_model_and_config_match():
    model = get_model("recip_bessel").model
    cfg = MCConfig(n=1000, steps=8, seed=3, scheme="exact")
    pair = make_batches(model, cfg)
    assert make_batches(model, cfg) is pair
    assert make_batches(model, replace(cfg)) is pair   # equal, not identical
    fresh = simulate(model, cfg)
    assert np.array_equal(pair[0].x, fresh.x)


@pytest.mark.parametrize("change", [
    {"seed": 4}, {"steps": 16}, {"scheme": "euler_absorbed"}, {"workers": 2},
    {"n": 999}, "model"])
def test_make_batches_simulates_afresh_on_any_other_key(change, monkeypatch):
    model = get_model("recip_bessel").model
    cfg = MCConfig(n=1000, steps=8, seed=3, scheme="exact")
    pair = make_batches(model, cfg)
    calls = []
    real = engine.simulate

    def counting(spec, c):
        calls.append(c)
        return real(spec, c)

    monkeypatch.setattr(engine, "simulate", counting)
    if change == "model":
        other, other_cfg = replace(model), cfg   # equal, but another object
    else:
        other, other_cfg = model, replace(cfg, **change)
    again = make_batches(other, other_cfg)
    assert again is not pair and len(calls) == 2
    assert calls[0] == other_cfg and calls[1].seed == dual_seed(other_cfg.seed)
    # the new pair is now the one kept, and the old key misses again
    assert make_batches(other, other_cfg) is again and len(calls) == 2
    make_batches(model, cfg)
    assert len(calls) == 4


def test_shared_batch_arrays_are_read_only():
    for name in ("recip_bessel", "qnv(1,0,0)"):
        primal, dual = make_batches(get_model(name).model,
                                    MCConfig(n=100, steps=4, seed=2))
        arrays = [primal.x, primal.hit_zero_time, primal.hit_infinity,
                  dual.x, dual.hit_zero_time, dual.hit_infinity, dual.y]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = arr[0]


class _YieldingConfig(MCConfig):
    """An MCConfig whose comparison lets other threads run mid-lookup."""

    def __eq__(self, other):
        time.sleep(0)
        return MCConfig.__eq__(self, other)

    __hash__ = MCConfig.__hash__


def test_make_batches_under_thread_contention(monkeypatch):
    """Threads alternating two configs always get the pair of their own
    config: a lookup that read the key and the pair apart could hand one
    the other's.  A stub simulate keeps each miss short."""
    model = get_model("stopped_bm").model
    cfgs = [_YieldingConfig(n=64, seed=s, scheme="exact") for s in (1, 2)]
    made = {}
    for c in cfgs:
        for spec, seed in ((model, c.seed),
                           (derive_dual_model(model), dual_seed(c.seed))):
            made[seed] = simulate(spec, MCConfig(n=64, seed=seed))
    monkeypatch.setattr(engine, "simulate",
                        lambda spec, c: replace(made[c.seed]))
    errors = []

    def work(i):
        for j in range(2000):
            cfg = cfgs[(i + j) % 2]
            primal, dual = make_batches(model, cfg)
            if (primal.seed, dual.seed) != (cfg.seed, dual_seed(cfg.seed)):
                errors.append((i, j))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
