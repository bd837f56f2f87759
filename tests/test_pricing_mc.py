"""The Monte Carlo pricing operator: decompositions, parity, equivalence,
defects, infinite-price verdicts and estimator properties."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from dualfx import ConfigError, DualFXError, InfiniteContribution, pricing
from dualfx.catalog import get_model
from dualfx.inputs import CLAIM_KINDS, PAYOFFS
from dualfx.lattice import tree_claim, two_period_example
from dualfx.pricing import (Claim, intl_equivalence_table, make_batches,
                            make_claim, martingale_defect, parity_table,
                            price, price_euro_side, scheme_convergence,
                            tail_diagnostic)
from dualfx.sde import (BLOCK, DiffusionModel, MCConfig, derive_dual_model,
                        engine, simulate)
from tests.test_oracles import DUAL_ABSORPTION, EXPECTED_X

CFG = MCConfig(n=100_000, seed=7)


@pytest.fixture(scope="module")
def bessel_batches():
    return make_batches(get_model("recip_bessel").model, CFG)


def test_euro_forward_decomposition(bessel_batches):
    model = get_model("recip_bessel").model
    p = price(model, make_claim("euro_forward"), CFG, bessel_batches)
    assert abs(p.classical.mean - EXPECTED_X) <= 3 * p.classical.stderr
    assert abs(p.correction.mean - DUAL_ABSORPTION) <= 3 * p.correction.stderr
    assert abs(p.total_dollar - 1.0) <= 3 * p.total_stderr
    assert p.total_euro * model.x0 == p.total_dollar
    assert not p.flags


def test_euro_side_decomposition_matches(bessel_batches):
    model = get_model("recip_bessel").model
    claim = make_claim("call", 1.0)
    p = price(model, claim, CFG, bessel_batches)
    ec, ecorr = price_euro_side(model, claim, CFG, bessel_batches)
    pe = ec.mean + ecorr.mean
    se = math.hypot(ec.stderr, ecorr.stderr, p.total_stderr)
    assert abs(p.total_euro - pe) <= 3 * se


def test_singular_forward_is_pure_correction():
    model = get_model("singular_timechange").model
    p = price(model, make_claim("euro_forward"), MCConfig(n=50_000, seed=3))
    assert p.classical.mean == 0.0
    assert p.correction.mean == 1.0
    assert p.correction.stderr == 0.0
    assert p.total_dollar == 1.0


def test_baseline_call_matches_lognormal_value():
    entry = get_model("exp_martingale_baseline")
    p = price(entry.model, make_claim("call", 1.25), MCConfig(n=100_000, seed=11))
    assert p.correction.mean == 0.0
    want = entry.analytic["call"](1.25)
    assert abs(p.total_dollar - want) <= 3 * p.total_stderr


def test_self_quantoed_analytic_infinity():
    for name in ("recip_bessel", "singular_timechange"):
        model = get_model(name).model
        p = price(model, make_claim("self_quantoed", 1.0),
                  MCConfig(n=20_000, seed=1))
        assert p.flags.get("analytic_infinite") is True
        assert p.total_dollar == math.inf and p.total_euro == math.inf
        assert p.correction is None
        assert p.classical is not None and math.isfinite(p.classical.mean)


def test_unknown_flag_propagates_infinite_contribution():
    model = get_model("qnv(0.5,0.2,0.3)").model   # explodes, no verdict
    with pytest.raises(InfiniteContribution):
        price(model, make_claim("self_quantoed", 1.0),
              MCConfig(n=20_000, steps=32, seed=1))


def test_baseline_self_quantoed_is_finite():
    model = get_model("exp_martingale_baseline").model
    p = price(model, make_claim("self_quantoed", 1.0), MCConfig(n=20_000, seed=2))
    assert math.isfinite(p.total_dollar)
    assert p.correction.mean == 0.0


def test_total_euro_scales_exactly_with_spot():
    model = get_model("recip_bessel", x0=2.0).model
    p = price(model, make_claim("euro_forward"), MCConfig(n=20_000, seed=3))
    assert p.total_euro * 2.0 == p.total_dollar
    assert abs(p.total_dollar - 2.0) <= 4 * p.total_stderr


def test_claim_pairs_consistent_on_finite_rates():
    rng = np.random.default_rng(123)
    x = rng.uniform(0.02, 8.0, 10_000)
    for kind in CLAIM_KINDS:
        claim = make_claim(kind, None if kind in ("euro_forward",
                                                  "digital_explosion") else 0.7)
        np.testing.assert_allclose(claim.euro_finite(x),
                                   claim.dollar_finite(x) / x,
                                   rtol=1e-12, atol=1e-15, err_msg=kind)


@pytest.mark.parametrize("kind", [k for k in CLAIM_KINDS
                                  if PAYOFFS[k].takes_strike])
@pytest.mark.parametrize("strike", [math.inf, math.nan])
def test_non_finite_strike_rejected(kind, strike):
    with pytest.raises(ConfigError):
        make_claim(kind, strike)
    with pytest.raises(ConfigError):
        tree_claim(two_period_example(), kind, strike)


# sha256 of each kind's make_claim legs at strikes 0.5, 1 and 2: the dollar
# leg on every rate of LEG_RATES, the euro leg on its positive finite ones
LEG_RATES = np.array([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf])
LEG_DIGESTS = {
    "euro_forward":
        "2f22cc1d8b90e889a781d105ba3fc6d6d6f0ac720e7966f080c730d72af11b1e",
    "call": "4769b77af43c3436072fee6bcc24f6f905a4a29d9b83ad3adc46bd40cf8ff568",
    "put": "339eff43dacf3c98a188148bad6add3cf8e9c52fd084a2757df31f291bca8664",
    "dollar_call":
        "08d6964cecd49f1028f01aa1bdf0cfab0bf1cacb92d801fd850bbdfa671bac01",
    "dollar_put":
        "407016c0b17a3656c6e83daa9e5c080fbba64bc7cb4ccdb912c85ef1fbae95b2",
    "self_quantoed":
        "412aa4acc09c02aad86ba2223c2d6f00fdda3e1f9c32bc262b9dcb27e630d555",
    "digital_explosion":
        "5be741e7f1b16ee2fe79558090da03232c1141eb821ee77b0bc4ae55361d5fb4",
}


@pytest.mark.parametrize("kind", CLAIM_KINDS)
def test_float_legs_of_the_table_are_pinned(kind):
    """Dtype and bytes of the float legs, signed zeros, subnormals, overflow
    and inf included: a constant leg is 1.0 or 0.0 at inf, not nan."""
    euro_rates = LEG_RATES[(LEG_RATES > 0) & np.isfinite(LEG_RATES)]
    h = hashlib.sha256()
    for k in (0.5, 1.0, 2.0):
        claim = make_claim(kind, k)
        with np.errstate(all="ignore"):
            legs = claim.dollar_finite(LEG_RATES), claim.euro_finite(euro_rates)
        for leg in legs:
            h.update(leg.dtype.str.encode())
            h.update(leg.tobytes())
    assert h.hexdigest() == LEG_DIGESTS[kind]


def test_tables_reject_non_finite_strikes():
    model = get_model("recip_bessel").model
    cfg = MCConfig(n=1000, seed=1)
    for strike in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            parity_table(model, [strike], cfg)
        with pytest.raises(ConfigError):
            intl_equivalence_table(model, [strike], cfg)


@pytest.mark.parametrize("table, strikes", [
    (parity_table, [0.5, -1.0]), (parity_table, [math.nan]),
    (intl_equivalence_table, [2.0, 0.0]),
    (intl_equivalence_table, [1e-320])])    # 1/K overflows to inf
def test_tables_refuse_bad_strikes_before_simulating(table, strikes,
                                                      monkeypatch):
    def no_simulation(*args):
        raise AssertionError("simulated before the strikes were checked")

    monkeypatch.setattr(pricing, "make_batches", no_simulation)
    with pytest.raises(ConfigError, match="strike"):
        table(get_model("recip_bessel").model, strikes, MCConfig(n=1000))


def test_parity_table_recip_bessel(bessel_batches):
    model = get_model("recip_bessel").model
    rows = parity_table(model, [0.5, 1.0, 2.0], CFG)
    for row in rows:
        assert abs(row.residual) <= 3 * row.residual_stderr
        assert abs(row.classical_violation + DUAL_ABSORPTION) \
            <= 3 * row.violation_stderr
        assert abs(row.minus_correction_mass + DUAL_ABSORPTION) \
            <= 3 * row.mass_stderr


def test_parity_table_zero_strike_degenerates_to_forward():
    model = get_model("recip_bessel").model
    rows = parity_table(model, [0.0], CFG)
    row = rows[0]
    fwd = price(model, make_claim("euro_forward"), CFG,
                make_batches(model, CFG))
    assert row.put.total_dollar == 0.0
    assert row.call.total_dollar == fwd.total_dollar
    assert abs(row.residual) <= 3 * row.residual_stderr


def test_parity_table_martingale_baseline():
    model = get_model("exp_martingale_baseline").model
    for row in parity_table(model, [0.5, 1.0, 2.0], MCConfig(n=50_000, seed=19)):
        assert row.minus_correction_mass == 0.0
        assert abs(row.residual) <= 3 * row.residual_stderr
        assert abs(row.classical_violation) <= 3 * row.violation_stderr


def test_intl_equivalence():
    for name, seed in (("recip_bessel", 23), ("exp_martingale_baseline", 29),
                       ("stopped_bm", 31)):
        model = get_model(name).model
        for row in intl_equivalence_table(model, [0.5, 1.0, 2.0],
                                          MCConfig(n=60_000, seed=seed)):
            assert abs(row.z_call) <= 3.0, (name, row)
            assert abs(row.z_put) <= 3.0, (name, row)


@pytest.mark.parametrize("name", ["recip_bessel", "stopped_bm"])
def test_intl_rows_equal_price_composition(name):
    """Each row equals the two-measure prices it stands for, bit for bit:
    p$ of the dollar claim and x0 K times the euro-side price of the euro
    claim at strike 1/K, each priced on its own."""
    model = get_model(name).model
    cfg = MCConfig(n=20_000, seed=41)
    batches = make_batches(model, cfg)
    x0 = model.x0
    for row in intl_equivalence_table(model, [0.5, 1.0, 2.0], cfg):
        k = row.strike
        pe_put = price_euro_side(model, make_claim("dollar_put", 1.0 / k),
                                 cfg, batches)
        pe_call = price_euro_side(model, make_claim("dollar_call", 1.0 / k),
                                  cfg, batches)
        assert row.call_lhs == price(model, make_claim("call", k), cfg,
                                     batches).total_dollar
        assert row.call_rhs == x0 * k * (pe_put[0].mean + pe_put[1].mean)
        assert row.put_lhs == price(model, make_claim("put", k), cfg,
                                    batches).total_dollar
        assert row.put_rhs == x0 * k * (pe_call[0].mean + pe_call[1].mean)


def test_intl_equivalence_tiny_strike():
    model = get_model("recip_bessel").model
    rows = intl_equivalence_table(model, [0.01], MCConfig(n=40_000, seed=37))
    assert abs(rows[0].z_call) <= 3.0 and abs(rows[0].z_put) <= 3.0


def test_martingale_defect_reports():
    rb = martingale_defect(get_model("recip_bessel").model, CFG)
    assert rb.strict
    assert abs(rb.z) <= 3.0
    assert abs(rb.defect - DUAL_ABSORPTION) <= 3 * rb.defect_stderr
    base = martingale_defect(get_model("exp_martingale_baseline").model,
                             MCConfig(n=50_000, seed=13))
    assert not base.strict
    assert base.dual_mass == 0.0
    sing = martingale_defect(get_model("singular_timechange").model,
                             MCConfig(n=20_000, seed=17))
    assert sing.defect == 1.0 and sing.dual_mass == 1.0 and sing.z == 0.0
    assert sing.strict


def test_monotonicity_in_strike_on_shared_batches():
    model = get_model("recip_bessel").model
    batches = make_batches(model, MCConfig(n=30_000, seed=41))
    strikes = [0.25, 0.5, 1.0, 2.0, 4.0]
    calls = [price(model, make_claim("call", k), CFG, batches).total_dollar
             for k in strikes]
    puts = [price(model, make_claim("put", k), CFG, batches).total_dollar
            for k in strikes]
    assert all(a >= b for a, b in zip(calls, calls[1:]))
    assert all(a <= b for a, b in zip(puts, puts[1:]))


def test_estimator_linearity_on_identical_batches():
    model = get_model("recip_bessel").model
    batches = make_batches(model, MCConfig(n=20_000, seed=43))
    c1, c2 = make_claim("call", 1.0), make_claim("put", 1.0)
    a = 2.5
    combo = Claim("combo", None,
                  lambda x: c1.dollar_finite(x) + a * c2.dollar_finite(x),
                  lambda x: c1.euro_finite(x) + a * c2.euro_finite(x),
                  c1.euro_at_explosion + a * c2.euro_at_explosion)
    p = price(model, combo, CFG, batches)
    p1 = price(model, c1, CFG, batches)
    p2 = price(model, c2, CFG, batches)
    assert p.classical.mean == pytest.approx(
        p1.classical.mean + a * p2.classical.mean, abs=1e-12)
    assert p.correction.mean == pytest.approx(
        p1.correction.mean + a * p2.correction.mean, abs=1e-12)


def test_tail_diagnostic_grows_for_nonintegrable_claims():
    claim = make_claim("self_quantoed", 1.0)
    for name in ("recip_bessel", "singular_timechange"):
        pts = tail_diagnostic(get_model(name).model, claim,
                              [1000, 10_000, 100_000],
                              MCConfig(seed=7, steps=16))
        means = [p.running_mean for p in pts]
        assert means[0] < means[1] < means[2], (name, means)


@pytest.mark.parametrize("ns", [[0, 64], [-5], [64.7]])
def test_tail_diagnostic_refuses_bad_sizes(ns):
    with pytest.raises(ConfigError):
        tail_diagnostic(get_model("recip_bessel").model,
                        make_claim("self_quantoed", 1.0), ns, MCConfig())


def test_tail_diagnostic_bounds_every_level_before_simulating(monkeypatch):
    """steps grows 4x per level: the third level, 3 paths x 1.6e10 steps,
    exceeds MAX_PATH_STEPS, and no level is simulated."""
    def refuse(*args):
        raise AssertionError("simulated a level")
    monkeypatch.setattr(pricing, "_naive_dual_values", refuse)
    cfg = MCConfig(n=1, steps=10**9)
    with pytest.raises(ConfigError, match="MAX_PATH_STEPS"):
        tail_diagnostic(get_model("recip_bessel").model,
                        make_claim("self_quantoed", 1.0), [1, 2, 3], cfg)


def test_a_scalar_sigma_runs_as_its_array_of_live_rates():
    """A constant sigma returned as one float gives the same bits as the same
    sigma returned as an array of the live rates' shape: the Euler legs, both
    of them, and the naive dual running means.  Paths absorb on the dollar
    leg, so the scalar also meets a shrinking live set."""
    def model(sigma):
        return DiffusionModel("const", sigma, x0=1.0, horizon=1.0)

    scalar = model(lambda x, t: 0.5)
    array = model(lambda x, t: np.full_like(x, 0.5))
    cfg = MCConfig(n=5_000, steps=32, seed=3, scheme="euler_absorbed")
    for leg in (lambda m: m, derive_dual_model):
        a, b = simulate(leg(scalar), cfg), simulate(leg(array), cfg)
        for field in ("x", "hit_zero_time", "hit_infinity", "y"):
            fa, fb = getattr(a, field), getattr(b, field)
            assert (fa is None and fb is None
                    or fa.tobytes() == fb.tobytes()), field
    assert 0 < np.count_nonzero(simulate(scalar, cfg).x == 0.0) < cfg.n
    claim = make_claim("self_quantoed", 1.0)
    assert (tail_diagnostic(scalar, claim, [1000, 4000], cfg)
            == tail_diagnostic(array, claim, [1000, 4000], cfg))


def test_scheme_convergence_recip_bessel():
    ref, rows = scheme_convergence(get_model("recip_bessel").model,
                                   [32, 128, 512], MCConfig(n=40_000, seed=1))
    diffs = [r.abs_diff for r in rows]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 0.05


def test_scheme_convergence_refuses_a_bad_level_before_simulating(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("simulated a level")
    monkeypatch.setattr(pricing, "simulate", refuse)
    with pytest.raises(ConfigError, match="got 100000, 0 and 1"):
        scheme_convergence(get_model("recip_bessel").model,
                           [32, 128, 512, 0], MCConfig())


def test_scheme_convergence_euler_exact_for_bm():
    """Constant volatility: euler with bridge absorption is already exact, so
    every refinement level sits within noise of the exact scheme."""
    ref, rows = scheme_convergence(get_model("stopped_bm").model,
                                   [8, 32, 128], MCConfig(n=50_000, seed=2))
    for r in rows:
        assert r.abs_diff <= 4 * math.hypot(r.stderr, ref.stderr)


def test_scheme_convergence_sets_its_own_scheme_and_steps():
    """Each Euler level runs at its own step count and the reference runs
    exact, so the config's scheme and steps change no bit of the study."""
    model = get_model("recip_bessel").model
    want = repr(scheme_convergence(model, [4, 16], MCConfig(n=500, seed=3)))
    for scheme in ("auto", "exact", "euler_absorbed"):
        for steps in (1, 64):
            cfg = MCConfig(n=500, steps=steps, seed=3, scheme=scheme)
            assert repr(scheme_convergence(model, [4, 16], cfg)) == want


def _fresh_batches(model, cfg):
    """The pair make_batches simulates afresh, with no pair kept."""
    engine._last_pair = None
    return engine.make_batches(model, cfg)


@pytest.mark.parametrize("name,scheme", [("recip_bessel", "exact"),
                                         ("stopped_bm", "exact"),
                                         ("qnv(1,0,0)", "euler_absorbed")])
def test_tables_equal_with_and_without_the_kept_pair(name, scheme,
                                                      monkeypatch):
    model = get_model(name).model
    cfg = MCConfig(n=5000, steps=16, seed=29, scheme=scheme)
    strikes = [0.5, 1.0, 2.0]
    tables = (parity_table, intl_equivalence_table)
    cold = []
    for table in tables:
        make_batches(model, replace(cfg, seed=30))   # another pair is kept
        cold.append(table(model, strikes, cfg))
    kept = make_batches(model, cfg)
    warm = [table(model, strikes, cfg) for table in tables]
    assert make_batches(model, cfg) is kept
    monkeypatch.setattr(pricing, "make_batches", _fresh_batches)
    fresh = [table(model, strikes, cfg) for table in tables]
    assert cold == warm == fresh


# ---------------------------------------------------------------------------
# every Monte Carlo report number pinned by digest
# ---------------------------------------------------------------------------

def _mc_results(name):
    """Each claim's two decompositions at three strikes (or the error one
    raises), the parity and intl tables and the defect, on one exact pair."""
    model = get_model(name).model
    cfg = MCConfig(n=BLOCK + 3, seed=20120229, scheme="exact")
    out = []
    for kind in CLAIM_KINDS:
        for k in (0.5, 1.0, 2.0):
            claim = make_claim(kind, k)
            for operator in (price, price_euro_side):
                try:
                    out.append(operator(model, claim, cfg))
                except DualFXError as exc:
                    out.append((type(exc).__name__, str(exc)))
    out.append(parity_table(model, (0, 0.5, 1, 2), cfg))
    out.append(intl_equivalence_table(model, (0.5, 1, 2), cfg))
    out.append(martingale_defect(model, cfg))
    return repr(out)


# SHA-256 over _mc_results, recorded before the claim legs were evaluated
# on the whole batch; singular_timechange's since its parity rows, whose
# standard error is 0 (X_T = 0 and the explosion are sure), read the
# rounding floor as residual_stderr
MC_DIGESTS = {
    "recip_bessel":
        "c3111c77b4ecd5a56246223f85cc1f405e6c23ad5634064328eb1fad22ce4150",
    "stopped_bm":
        "47b1cf40e95afe5a96119736707c105f8eb580cd7b4670fd5d2e32575ab75273",
    "exp_martingale_baseline":
        "002b9fcc2e7cd54b4c4e03dcaec8eb8c755825d04e555283fd59f303c47d95f5",
    "singular_timechange":
        "5b21cd6a3a9c5c6f107baa69f3c107006c263b5471d790a10f754b9f10a55207",
}


@pytest.mark.parametrize("name", list(MC_DIGESTS))
def test_monte_carlo_results_are_pinned(name):
    digest = hashlib.sha256(_mc_results(name).encode()).hexdigest()
    assert digest == MC_DIGESTS[name]


# sha256 of the value bytes of the naive dual step, 16 steps on BLOCK + 3
# paths, so the second block is a short one, for the self-quantoed claim at
# strike 0.5 and seed 11
NAIVE_DIGESTS = {
    "qnv(1,0,0)":
        "e9b0fea54243ba9332690a54d1ef579c823a18462cccfbe6e136bdeacc731fa5",
    "qnv(2,-1,3)":
        "2379fe402d6b6e0d891ff19f43b2b4df639c99ced26d895266fb6eb7ec155777",
}


@pytest.mark.parametrize("name", list(NAIVE_DIGESTS))
def test_naive_dual_values_are_pinned(name):
    vals = pricing._naive_dual_values(
        get_model(name).model, make_claim("self_quantoed", 0.5), BLOCK + 3,
        16, 11)
    assert hashlib.sha256(vals.tobytes()).hexdigest() == NAIVE_DIGESTS[name]


# ---------------------------------------------------------------------------
# the claim legs on the whole batch equal the boolean gather and scatter
# ---------------------------------------------------------------------------

def _gathered_correction(claim, dual):
    out = np.zeros(len(dual))
    out[dual.hit_infinity] = claim.euro_at_explosion
    return out


def _gathered_euro_leg(claim, dual):
    surv = ~dual.hit_infinity
    out = np.full(len(dual), float(claim.euro_at_explosion))
    out[surv] = claim.euro_finite(dual.x[surv])
    return out


def _gathered_devaluation(claim, primal):
    dev = primal.x == 0.0
    out = np.zeros(len(primal))
    out[dev] = claim.dollar_finite(primal.x[dev])
    return out


def _spy(claim):
    """The claim, with a euro leg that refuses a rate outside (0, inf)."""
    def euro_finite(x):
        assert np.all(np.isfinite(x) & (x > 0.0)), "euro leg off (0, inf)"
        return claim.euro_finite(x)
    return replace(claim, euro_finite=euro_finite)


@pytest.mark.parametrize("name, event", [("recip_bessel", "hit_infinity"),
                                         ("stopped_bm", "devalued")])
def test_whole_batch_legs_equal_the_gathered_legs(name, event):
    primal, dual = make_batches(
        get_model(name).model,
        MCConfig(n=BLOCK + 3, seed=20120229, scheme="exact"))
    # each batch carries the event its legs single out
    assert (dual.hit_infinity if event == "hit_infinity"
            else primal.x == 0.0).any()
    legs = ((pricing.euro_leg_values, _gathered_euro_leg, dual),
            (pricing.euro_correction_values, _gathered_correction, dual),
            (pricing.devaluation_values, _gathered_devaluation, primal))
    for kind in CLAIM_KINDS:
        for k in (0.5, 1.0, 2.0):
            claim = _spy(make_claim(kind, k))
            for leg, gathered, batch in legs:
                got, want = leg(claim, batch), gathered(claim, batch)
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes(), (kind, k, leg)


@pytest.mark.parametrize("name", ["recip_bessel", "stopped_bm"])
def test_legs_of_a_custom_claim_equal_the_gathered_legs(name):
    """A claim built positionally, with a euro leg that returns its own
    argument and is infinite at explosion: each leg is the gathered leg bit
    for bit, and a batch whose explosion mask is an int 0/1 array gives the
    legs of its bool twin."""
    primal, dual = make_batches(
        get_model(name).model,
        MCConfig(n=BLOCK + 3, seed=20120229, scheme="exact"))
    claim = _spy(Claim("custom", None, lambda x: np.exp(-x), lambda x: x,
                       math.inf))
    for leg, gathered, batch in (
            (pricing.euro_leg_values, _gathered_euro_leg, dual),
            (pricing.euro_correction_values, _gathered_correction, dual),
            (pricing.devaluation_values, _gathered_devaluation, primal)):
        got = leg(claim, batch)
        assert got.tobytes() == gathered(claim, batch).tobytes(), leg
        twin = replace(batch, hit_infinity=batch.hit_infinity.astype(np.int64))
        assert leg(claim, twin).tobytes() == got.tobytes(), leg
    # the event each leg singles out is on the batch, and the explosion value
    # reaches the euro legs
    assert (np.isinf(pricing.euro_leg_values(claim, dual)).any()
            if name == "recip_bessel" else (primal.x == 0.0).any())
