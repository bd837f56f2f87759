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


def test_dual_sigma_is_the_reversed_quadratic_on_grid():
    """sigma_Y(y) = y^2 sigma(1/y): the dual of qnv(a,b,c) steps as
    qnv(c,b,a), named or not, and the singular model's dual as
    y^2 / sqrt(T - t), the one time-dependent coefficient."""
    ys = np.linspace(0.05, 4.0, 37)
    cases = {"recip_bessel": (1, 0, 0), "stopped_bm": (0, 0, 1),
             "exp_martingale_baseline": (0, 0.5, 0)}
    cases.update({_spelled(c): c for c in (*cases.values(), (2, -1, 3),
                                           (0.5, 2, 0.25))})
    for name in (*cases, "singular_timechange"):
        dual = derive_dual_model(get_model(name).model)
        for t in (0.0, 0.4, 0.9):
            got = np.asarray(dual.sigma(ys, t), dtype=float)
            if name in cases:
                want = get_model(_spelled(cases[name][::-1])).model.sigma(ys, t)
            else:
                want = ys ** 2 / math.sqrt(1.0 - t)
            assert np.allclose(np.broadcast_to(got, ys.shape),
                               np.broadcast_to(want, ys.shape), rtol=1e-12), name


def _spelled(coeffs):
    return "qnv({},{},{})".format(*coeffs)


def _same_batches(got, want):
    for field in ("x", "hit_zero_time", "hit_infinity"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), \
            field


@pytest.mark.parametrize("x0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("coeffs", [(1, 0, 0), (2, 0, 0), (0, 0, 1),
                                    (0, 0, 0.5), (0, 0.5, 0)], ids=_spelled)
def test_the_dual_of_qnv_is_the_reversed_qnv(coeffs, x0):
    """The exact dual of qnv(a,b,c) at x0 samples as qnv(c,b,a) at 1/x0 bit
    for bit (1/x0 is exact for a power of 2), and the pair's references
    agree: X explodes as its mirror devalues and devalues as its mirror
    explodes, and each mean is its spot times its survival mass."""
    entry, mirror = get_model(_spelled(coeffs), x0=x0), \
        get_model(_spelled(coeffs[::-1]), x0=1 / x0)
    cfg = MCConfig(n=BLOCK + 3, seed=31, scheme="exact")
    _same_batches(simulate(derive_dual_model(entry.model), cfg),
                  simulate(mirror.model, cfg))

    def ref(e, key):
        return e.analytic[key]() if key in e.analytic else 0.0

    explodes = ref(entry, "dual_absorption_prob")
    devalues = ref(entry, "devaluation_prob")
    pairs = [(explodes, ref(mirror, "devaluation_prob")),
             (devalues, ref(mirror, "dual_absorption_prob")),
             (ref(entry, "expected_x") / x0 + explodes, 1.0),
             (ref(mirror, "expected_x") * x0 + devalues, 1.0)]
    for got, want in pairs:
        assert math.isclose(got, want, rel_tol=1e-15), (got, want)


@pytest.mark.parametrize("negative,positive", [
    ("qnv(-2,0,0)", "qnv(2,0,0)"), ("qnv(0,-0.5,0)", "qnv(0,0.5,0)"),
    ("qnv(0,0,-0.5)", "qnv(0,0,0.5)")])
def test_a_negative_coefficient_samples_as_its_positive_twin(negative,
                                                             positive):
    """sigma is |a x^2 + b x + c|, so a sign flip of the one coefficient
    changes no batch and no reference."""
    cfg = MCConfig(n=BLOCK + 3, seed=13, scheme="exact")
    neg, pos = get_model(negative), get_model(positive)
    for spec_neg, spec_pos in ((neg.model, pos.model),
                               (derive_dual_model(neg.model),
                                derive_dual_model(pos.model))):
        _same_batches(simulate(spec_neg, cfg), simulate(spec_pos, cfg))
    assert {k: f(1.0) if k == "call" else f()
            for k, f in neg.analytic.items()} \
        == {k: f(1.0) if k == "call" else f() for k, f in pos.analytic.items()}


def test_exact_qnv_runs_on_its_clock():
    """qnv(2,0,0) is recip_bessel on the clock 4t, where E[X_1] is 0.383
    against recip_bessel's 0.683; qnv(0,0,0.5) is absorbed BM on the clock
    t/4, whose hit times are read back on the model's clock."""
    entry = get_model("qnv(2,0,0)")
    b = simulate(entry.model, MCConfig(n=100_000, seed=8, scheme="exact"))
    est = estimate_from_values(b.x, b.seed)
    assert abs(est.mean - entry.analytic["expected_x"]()) <= 3 * est.stderr
    b = simulate(get_model("qnv(0,0,0.5)").model,
                 MCConfig(n=100_000, seed=9, scheme="exact"))
    hit = np.nan_to_num(b.hit_zero_time, nan=np.inf)
    for t in (0.25, 1.0):
        want = 1.0 - catalog._survival_bm(1.0, 0.25 * t)
        assert abs((hit <= t).mean() - want) \
            <= 3 * math.sqrt(want * (1 - want) / len(b)), t


@pytest.mark.parametrize("name", ["qnv(1e200,0,0)", "qnv(0,0,1e-200)",
                                  "qnv(0,1e-170,1)"])
def test_a_clock_out_of_float_range_is_refused(name):
    """A nonzero coefficient k runs its sampler on the clock k^2 T, which
    must be a positive finite float: 1e200^2 is inf and 1e-200^2 is 0."""
    with pytest.raises(UnknownModel, match="clock"):
        get_model(name)


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
        == "nonintegrable"
    assert get_model("qnv(0.5,0.2,0.3)").model.dual_payoff_flags[
        "self_quantoed"] == "unknown"


@pytest.mark.parametrize("name", ["qnv(1,0,1)", "qnv(0,1,1)"])
def test_a_two_coefficient_case_has_no_sampler_and_no_verdict(name):
    """Only a one-coefficient qnv is sampled exactly: qnv(1,0,1) and
    qnv(0,1,1) carry c != 0 beside another coefficient, so neither gets
    stopped_bm's sampler, and the self-quantoed verdict stays unknown."""
    model = get_model(name).model
    assert model.exact is None and model.dual_exact is None
    assert model.dual_payoff_flags == {"self_quantoed": "unknown"}


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
    # as the clock ln(T / (T - t)) runs out, at the horizon
    assert (dual.hit_zero_time == 1.0).all()
    late = get_model("singular_timechange", horizon=2.5).model
    dual = simulate(derive_dual_model(late), MCConfig(n=100, seed=5))
    assert (dual.hit_zero_time == 2.5).all()


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
