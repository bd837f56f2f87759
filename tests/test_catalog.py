"""Catalog entries: analytic references, dual cross-checks, name parsing."""

import math

import numpy as np
import pytest

from dualfx import MCConfig, UnknownModel, derive_dual_model, simulate
from dualfx.catalog import get_model, list_models
from dualfx.sde.engine import estimate_from_values
from tests.test_oracles import (DUAL_ABSORPTION, EXPECTED_X,
                                EXPECTED_X_SQUARED)


def test_catalog_names():
    assert set(list_models()) == {"recip_bessel", "stopped_bm",
                                  "singular_timechange",
                                  "exp_martingale_baseline", "qnv(a,b,c)"}
    with pytest.raises(UnknownModel):
        get_model("nope")
    with pytest.raises(UnknownModel):
        get_model("recip_bessel", x0=-1.0)


@pytest.mark.parametrize("name,kwargs", [
    ("recip_bessel", {"x0": math.nan}),
    ("recip_bessel", {"x0": math.inf}),
    ("recip_bessel", {"horizon": math.nan}),
    ("recip_bessel", {"horizon": math.inf}),
    ("qnv(nan,0,0)", {}),
    ("qnv(1,inf,0)", {}),
    ("qnv(1,0,-inf)", {}),
], ids=["x0=nan", "x0=inf", "horizon=nan", "horizon=inf", "qnv_a=nan",
        "qnv_b=inf", "qnv_c=-inf"])
def test_non_finite_model_inputs_are_rejected(name, kwargs):
    with pytest.raises(UnknownModel):
        get_model(name, **kwargs)


@pytest.mark.parametrize("vol", [math.nan, math.inf, -math.inf, -0.5, 0.0])
@pytest.mark.parametrize("name", ["exp_martingale_baseline", "recip_bessel"])
def test_bad_volatility_is_rejected(name, vol):
    with pytest.raises(UnknownModel, match="vol"):
        get_model(name, vol=vol)


@pytest.mark.parametrize("name", ["qnv(x,0,0)", "qnv(1,0x,0)", "qnv(1,0,--2)"])
def test_non_numeric_qnv_coefficients_are_rejected(name):
    with pytest.raises(UnknownModel, match="numbers"):
        get_model(name)


def test_recip_bessel_analytics_match_frozen_oracle():
    entry = get_model("recip_bessel")
    assert entry.analytic["expected_x"]() == pytest.approx(EXPECTED_X, abs=1e-12)
    assert entry.analytic["dual_absorption_prob"]() == pytest.approx(
        DUAL_ABSORPTION, abs=1e-12)
    assert entry.analytic["expected_x_squared"]() == pytest.approx(
        EXPECTED_X_SQUARED, abs=1e-8)
    # euro-forward decomposition sums to the spot exactly
    assert entry.analytic["expected_x"]() \
        + entry.analytic["dual_absorption_prob"]() == pytest.approx(1.0)


def test_bessel_identity_quadrature_vs_exact_mc():
    """The euro-measure expectation of the rate on the survival set equals the
    dollar-measure second moment, quadrature against exact Monte Carlo."""
    entry = get_model("recip_bessel")
    b = simulate(entry.model, MCConfig(n=200_000, seed=77))
    est = estimate_from_values(b.x ** 2, b.seed)
    assert abs(est.mean - entry.analytic["expected_x_squared"]()) \
        <= 3 * est.stderr


def test_dual_sigma_matches_hand_reference_on_grid():
    ys = np.linspace(0.05, 4.0, 37)
    for name in ("recip_bessel", "stopped_bm", "singular_timechange",
                 "exp_martingale_baseline", "qnv(2,-1,3)"):
        entry = get_model(name)
        dual = derive_dual_model(entry.model)
        for t in (0.0, 0.4, 0.9):
            got = np.asarray(dual.sigma(ys, t), dtype=float)
            want = np.asarray(entry.dual_sigma_reference(ys, t), dtype=float)
            assert np.allclose(np.broadcast_to(got, ys.shape),
                               np.broadcast_to(want, ys.shape), rtol=1e-12), name


def test_qnv_coefficients_reverse_under_duality():
    entry = get_model("qnv(0.5,2,0.25)")
    dual = derive_dual_model(entry.model)
    ys = np.linspace(0.1, 5.0, 21)
    assert np.allclose(dual.sigma(ys, 0.0),
                       np.abs(0.25 * ys ** 2 + 2 * ys + 0.5), rtol=1e-12)


def test_flags():
    assert get_model("recip_bessel").model.dual_payoff_flags["self_quantoed"] \
        == "nonintegrable"
    assert get_model("singular_timechange").model.dual_payoff_flags[
        "self_quantoed"] == "nonintegrable"
    assert get_model("exp_martingale_baseline").model.dual_payoff_flags[
        "self_quantoed"] == "integrable"
    assert get_model("qnv(1,0,0)").model.dual_payoff_flags["self_quantoed"] \
        == "unknown"


def test_stopped_bm_is_martingale_with_devaluation():
    entry = get_model("stopped_bm")
    b = simulate(entry.model, MCConfig(n=100_000, seed=21))
    est = estimate_from_values(b.x, b.seed)
    assert abs(est.mean - 1.0) <= 3 * est.stderr
    frac = (b.x == 0.0).mean()
    assert frac == pytest.approx(entry.analytic["devaluation_prob"](), abs=0.01)
    dual = simulate(derive_dual_model(entry.model), MCConfig(n=50_000, seed=22))
    assert not dual.hit_infinity.any()


def test_singular_model_analytics():
    entry = get_model("singular_timechange")
    b = simulate(entry.model, MCConfig(n=50_000, seed=4))
    assert (b.x == 0.0).all()
    assert np.all(b.hit_zero_time <= 1.0)
    dual = simulate(derive_dual_model(entry.model), MCConfig(n=50_000, seed=5))
    assert dual.hit_infinity.all()


def test_horizon_and_spot_parameters():
    entry = get_model("recip_bessel", x0=2.0, horizon=4.0)
    # dual absorbed BM starts at 1/2 over horizon 4
    from scipy.stats import norm
    want = 2.0 * norm.cdf(-0.5 / 2.0)
    assert entry.analytic["dual_absorption_prob"]() == pytest.approx(want)
    b = simulate(entry.model, MCConfig(n=100_000, seed=6))
    est = estimate_from_values(b.x, b.seed)
    assert abs(est.mean - 2.0 * (1 - want)) < 4 * est.stderr
