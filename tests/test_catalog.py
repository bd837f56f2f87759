"""Catalog entries: analytic references, dual cross-checks, name parsing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualfx
from dualfx import UnknownModel, catalog
from dualfx.catalog import MODEL_NAMES, get_model
from dualfx.sde import BLOCK, MCConfig, derive_dual_model, simulate
from dualfx.sde.engine import estimate_from_values
from tests.test_oracles import (DUAL_ABSORPTION, EXPECTED_X,
                                EXPECTED_X_SQUARED)


def test_catalog_names():
    assert set(MODEL_NAMES) == {"recip_bessel", "stopped_bm",
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


def test_dawson_matches_scipy():
    from scipy.special import dawsn
    xs = [i / 100 for i in range(-1000, 1001)] + [1e-9, 0.2 - 1e-12, 60.0,
                                                   1e4, 1e7, 1e8, 1e15,
                                                   -1e20, 1e20, 1e300]
    for x in xs:
        assert catalog._dawson(x) == pytest.approx(dawsn(x), rel=1e-13,
                                                   abs=1e-300), x


@pytest.mark.parametrize("x0,horizon", [(1.0, 1.0), (2.0, 0.5), (0.5, 3.0),
                                        (1.7, 0.1)])
def test_recip_bessel_x_squared_closed_form_matches_quadrature(x0, horizon):
    """x0 * E[1/Y_T] for Brownian Y from 1/x0 killed at 0, by quadrature of
    the killed density, against the Dawson closed form."""
    from scipy.integrate import quad
    from scipy.stats import norm
    a, s = 1.0 / x0, math.sqrt(horizon)
    val, _ = quad(lambda y: (norm.pdf((y - a) / s) - norm.pdf((y + a) / s))
                  / (s * y), 0.0, math.inf, limit=200)
    entry = get_model("recip_bessel", x0=x0, horizon=horizon)
    assert entry.analytic["expected_x_squared"]() == pytest.approx(
        x0 * val, rel=1e-13)


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


@pytest.mark.parametrize("x0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("name", ["recip_bessel", "stopped_bm",
                                  "singular_timechange",
                                  "exp_martingale_baseline"])
def test_the_dual_of_the_dual_samples_as_the_model(name, x0):
    """Dualizing swaps the samplers, so dualizing twice gives the model's
    back; 1/(1/x0) is x0 for a power of 2, so both legs' exact batches agree
    bit for bit."""
    model = get_model(name, x0=x0).model
    twice = derive_dual_model(derive_dual_model(model))
    assert ((twice.exact, twice.dual_exact, twice.horizon, twice.exact_only)
            == (model.exact, model.dual_exact, model.horizon,
                model.exact_only))
    cfg = MCConfig(n=BLOCK + 3, seed=31, scheme="exact")
    for a, b in ((model, twice),
                 (derive_dual_model(model), derive_dual_model(twice))):
        got, want = simulate(b, cfg), simulate(a, cfg)
        for field in ("x", "hit_zero_time", "hit_infinity"):
            assert getattr(got, field).tobytes() \
                == getattr(want, field).tobytes(), (a.name, field)


def test_qnv_coefficients_reverse_under_duality():
    entry = get_model("qnv(0.5,2,0.25)")
    dual = derive_dual_model(entry.model)
    ys = np.linspace(0.1, 5.0, 21)
    assert np.allclose(dual.sigma(ys, 0.0),
                       np.abs(0.25 * ys ** 2 + 2 * ys + 0.5), rtol=1e-12)


def _full_quadratic(a, b, c, x):
    """|a x^2 + b x + c| with every term formed, zero or not."""
    with np.errstate(all="ignore"):
        return np.abs(a * np.asarray(x, float) ** 2
                      + b * np.asarray(x, float) + c)


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (0, 0, 1), (0, 0.5, 0),
                                    (2, -1, 3), (0.5, 0.2, 0.3), (0, 0, 0)])
def test_qnv_sigma_equals_the_full_formula_bit_for_bit(coeffs):
    """sigma from the nonzero terms alone keeps the full formula's bits
    wherever all its terms are finite: on both signs and on a scalar."""
    sigma = get_model("qnv({},{},{})".format(*coeffs)).model.sigma
    grid = np.geomspace(1e-6, 1e6, 97)
    for x in (grid, -grid, 1.7):
        got = sigma(x, 0.3)
        assert np.array_equal(got, _full_quadratic(*coeffs, x)), x
        assert np.shape(got) == np.shape(x)


def test_qnv_sigma_drops_the_zero_term_that_turns_nan():
    """0 x^2 is nan once x^2 overflows; sigma leaves that term out."""
    x = np.array([1e200])
    assert np.isnan(_full_quadratic(0, 1, 1, x)).all()
    assert np.array_equal(get_model("qnv(0,1,1)").model.sigma(x, 0.0), x)


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
    assert not (dual.x == 0.0).any()     # Y never hits zero: X never explodes


def test_singular_model_analytics():
    entry = get_model("singular_timechange")
    b = simulate(entry.model, MCConfig(n=50_000, seed=4))
    assert (b.x == 0.0).all()
    assert np.all(b.hit_zero_time <= 1.0)
    dual = simulate(derive_dual_model(entry.model), MCConfig(n=50_000, seed=5))
    assert (dual.x == 0.0).all()     # Y hits zero: X explodes


def test_horizon_and_spot_parameters():
    entry = get_model("recip_bessel", x0=2.0, horizon=4.0)
    # dual absorbed BM starts at 1/2 over horizon 4
    from scipy.stats import norm
    want = 2.0 * norm.cdf(-0.5 / 2.0)
    assert entry.analytic["dual_absorption_prob"]() == pytest.approx(want)
    b = simulate(entry.model, MCConfig(n=100_000, seed=6))
    est = estimate_from_values(b.x, b.seed)
    assert abs(est.mean - 2.0 * (1 - want)) < 4 * est.stderr


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(dualfx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dualfx.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


def test_analytic_values_match_the_scipy_formulas():
    """The stdlib normal cdf and pdf reproduce scipy's formulas to 1e-12."""
    from scipy.integrate import quad
    from scipy.stats import norm

    def survival(start, horizon):
        return 1.0 - 2.0 * norm.cdf(-start / math.sqrt(horizon))

    def x2(x0, horizon):
        a, s = 1.0 / x0, math.sqrt(horizon)
        val, _ = quad(lambda y: (1.0 / y) * (norm.pdf((y - a) / s)
                                             - norm.pdf((y + a) / s)) / s,
                      0.0, np.inf, limit=200)
        return x0 * val

    def black(x0, vol, horizon, k):
        sig = vol * math.sqrt(horizon)
        d1 = (math.log(x0 / k) + 0.5 * sig * sig) / sig
        return x0 * norm.cdf(d1) - k * norm.cdf(d1 - sig)

    checked = 0
    for x0 in (0.25, 1.0, 2.0, 4.0):
        for horizon in (0.25, 1.0, 4.0):
            bessel = get_model("recip_bessel", x0=x0, horizon=horizon).analytic
            bm = get_model("stopped_bm", x0=x0, horizon=horizon).analytic
            pairs = [(bessel["expected_x"](), x0 * survival(1 / x0, horizon)),
                     (bessel["dual_absorption_prob"](),
                      1 - survival(1 / x0, horizon)),
                     (bessel["expected_x_squared"](), x2(x0, horizon)),
                     (bm["devaluation_prob"](), 1 - survival(x0, horizon))]
            for vol in (0.1, 0.5, 1.5):
                call = get_model("exp_martingale_baseline", x0=x0,
                                 horizon=horizon, vol=vol).analytic["call"]
                pairs += [(call(k), black(x0, vol, horizon, k))
                          for k in (0.5 * x0, x0, 2.0 * x0)]
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
    assert checked == 12 * 13
