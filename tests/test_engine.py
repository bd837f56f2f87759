"""Simulation engine: schemes, determinism, absorption, error channels."""

import math

import numpy as np
import pytest

from dualfx import (DiffusionModel, InfiniteContribution, MCConfig,
                    NumericalBlowup, SchemeUnsupported, derive_dual_model,
                    simulate)
from dualfx.catalog import get_model
from dualfx.sde import cross_measure_check, dual_seed, estimate_from_values
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


def test_zero_volatility_paths_are_constant():
    model = DiffusionModel("flat", lambda x, t: np.zeros_like(x), 2.0, 1.0,
                           zero_attainable=False)
    b = simulate(model, MCConfig(n=1000, steps=4, seed=0,
                                 scheme="euler_absorbed"))
    assert (b.x == 2.0).all()
    assert np.isnan(b.hit_zero_time).all()


def test_numerical_blowup_is_reported():
    model = DiffusionModel("wild", lambda x, t: np.full_like(x, 1e308),
                           1.0, 1.0, zero_attainable=True)
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
    assert b.measure == "dollar"
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
