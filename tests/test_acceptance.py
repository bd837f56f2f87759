"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Criteria 1, 2 and 9 are exact (zero tolerance, rational arithmetic); the
Monte Carlo criteria use the frozen oracle constants from test_oracles.

The superreplication-equality criterion is evaluated on trees whose nodes
carry at most two supported branches: one-step completeness is exactly the
regime in which the hedging program reproduces the pricing formula, and
test_lattice_pricing pins the strict premium that appears outside it.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from dualfx.catalog import get_model
from dualfx.lattice import (bayes_check, first_hit_rule,
                            parity_and_equivalence_report, period_rule,
                            price_on_tree, random_claim,
                            random_complete_dual_tree, random_dual_tree,
                            random_rule_pair, random_terminal_values,
                            superreplicate_backward, tree_euro_forward,
                            two_period_example, verify_numeraire_identity,
                            verify_strategy)
from dualfx.physical import build_physical, consistency_checks
from dualfx.pricing import make_claim, parity_table, price, tail_diagnostic
from dualfx.sde import (MCConfig, cross_measure_check, derive_dual_model,
                        simulate)
from tests.test_oracles import DUAL_ABSORPTION, EXPECTED_X


@contextmanager
def criterion(num: int, desc: str, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc} "
          f"[{dt:.2f}s, limit {limit:.0f}s]")
    assert ok, f"criterion {num} exceeded its {limit:.0f}s budget ({dt:.2f}s)"


def _corpus():
    trees = [two_period_example()]
    trees += [random_dual_tree(seed) for seed in range(100)]
    trees += [random_complete_dual_tree(seed) for seed in range(100, 200)]
    return trees


def test_criterion_1_lattice_exact_suite():
    with criterion(1, "exact lattice identity suite on 200 random trees", 10.0):
        for i, tree in enumerate(_corpus()):
            terminal = period_rule(tree, tree.periods)
            for t in range(tree.periods + 1):
                rule = period_rule(tree, t)
                assert verify_numeraire_identity(tree, rule, rule) == 0
                for nid in rule:
                    assert verify_numeraire_identity(tree, [nid], rule) == 0
            hit = first_hit_rule(tree, lambda n: not n.x.is_finite)
            assert verify_numeraire_identity(tree, hit, hit) == 0
            rho, tau = random_rule_pair(tree, 31 * i + 1)
            y = random_terminal_values(tree, tau, 17 * i + 3)
            assert all(v == 0 for v in bayes_check(tree, y, rho, tau).values())
            for row in parity_and_equivalence_report(
                    tree, [Fraction(1, 2), Fraction(2)]):
                assert row.parity_residual == 0
                assert row.intl_call_residual == 0
                assert row.intl_put_residual == 0
                assert row.classical_violation == -row.explosion_mass
            p = price_on_tree(tree, tree_euro_forward(tree))
            assert p.total_euro == p.euro_classical + p.euro_correction
            assert p.total_dollar == tree.x0


def test_criterion_2_superreplication_oracle_equivalence():
    with criterion(2, "backward superreplication equals the pricing formula",
                   30.0):
        for i, tree in enumerate(_corpus()):
            complete = all(
                sum(1 for b in n.branches if b.q > 0 or b.q_hat > 0) <= 2
                for n in tree.nodes.values())
            for j in range(2):
                claim = random_claim(tree, 1009 * i + j)
                formula = price_on_tree(tree, claim).total_dollar
                cost, strategy = superreplicate_backward(tree, claim)
                verify_strategy(tree, claim, strategy,
                                require_equality=complete)
                assert cost >= formula
                if complete:
                    assert cost == formula


def test_criterion_3_price_of_a_euro():
    with criterion(3, "euro-forward decomposition on the reciprocal-Bessel "
                      "rate (n = 100000, exact scheme)", 5.0):
        model = get_model("recip_bessel").model
        p = price(model, make_claim("euro_forward"), MCConfig(n=100_000, seed=7))
        assert abs(p.classical.mean - EXPECTED_X) <= 3 * p.classical.stderr
        assert abs(p.correction.mean - DUAL_ABSORPTION) \
            <= 3 * p.correction.stderr
        assert abs(p.total_dollar - 1.0) <= 3 * p.total_stderr


def test_criterion_4_put_call_parity():
    with criterion(4, "put-call parity with common random numbers, "
                      "K in {0.5, 1, 2}", 10.0):
        model = get_model("recip_bessel").model
        rows = parity_table(model, [0.5, 1.0, 2.0], MCConfig(n=100_000, seed=11))
        for row in rows:
            assert abs(row.residual) <= 3 * row.residual_stderr
            assert abs(row.classical_violation + DUAL_ABSORPTION) \
                <= 3 * row.violation_stderr


def test_criterion_5_singular_model():
    with criterion(5, "mutually singular measure pair: sure devaluation, "
                      "sure dual explosion, forward priced at spot", 10.0):
        entry = get_model("singular_timechange")
        primal = simulate(entry.model, MCConfig(n=100_000, seed=13))
        assert (primal.x == 0.0).mean() >= 0.999
        dual = simulate(derive_dual_model(entry.model),
                        MCConfig(n=100_000, seed=14))
        assert (dual.x == 0.0).mean() >= 0.999     # Y at zero: X exploded
        p = price(entry.model, make_claim("euro_forward"),
                  MCConfig(n=100_000, seed=15))
        assert p.total_dollar == entry.model.x0
        assert p.correction.mean / p.total_dollar >= 0.999


def test_criterion_6_martingale_baseline():
    with criterion(6, "lognormal baseline: zero correction, call matches "
                      "its closed form", 5.0):
        entry = get_model("exp_martingale_baseline")
        cfg = MCConfig(n=100_000, seed=17)
        p = price(entry.model, make_claim("call", 1.0), cfg)
        assert p.correction.mean < 1e-3
        want = entry.analytic["call"](1.0)
        assert abs(p.total_dollar - want) <= 3 * p.total_stderr


def test_criterion_7_infinite_prices():
    with criterion(7, "self-quantoed verdicts are analytic infinities with a "
                      "growing tail diagnostic", 10.0):
        claim = make_claim("self_quantoed", 1.0)
        for name in ("recip_bessel", "singular_timechange"):
            model = get_model(name).model
            p = price(model, claim, MCConfig(n=20_000, seed=19))
            assert p.total_dollar == math.inf
            assert p.flags.get("analytic_infinite") is True
            pts = tail_diagnostic(model, claim, [1000, 10_000, 100_000],
                                  MCConfig(seed=7, steps=16))
            means = [t.running_mean for t in pts]
            assert means[0] < means[1] < means[2], (name, means)


def test_criterion_8_cross_measure_consistency():
    with criterion(8, "change-of-numeraire z-scores within 3 for 2 of 3 "
                      "seeded runs per functional", 15.0):
        model = get_model("recip_bessel").model
        fs = {"one": lambda x: 1.0,
              "min(x,1)": lambda x: min(x, 1.0),
              "indicator(x>1)": lambda x: float(x > 1.0)}
        for fname, f in fs.items():
            hits = 0
            for seed in (101, 211, 307):
                r = cross_measure_check(model, f, MCConfig(n=100_000, seed=seed))
                hits += abs(r.z) <= 3.0
            assert hits >= 2, (fname, hits)


def test_criterion_9_physical_consistency():
    with criterion(9, "physical-measure checks exact on 100 random trees "
                      "including zero-mass edge cases", 10.0):
        for seed in range(100):
            if seed % 4 == 1:
                tree = random_complete_dual_tree(seed, allow_explosion=False)
            elif seed % 4 == 2:
                tree = random_complete_dual_tree(seed, allow_devaluation=False)
            elif seed % 4 == 3:
                tree = random_complete_dual_tree(seed, allow_explosion=False,
                                                 allow_devaluation=False)
            else:
                tree = random_complete_dual_tree(seed)
            rep = consistency_checks(build_physical(tree))
            assert rep.support_checks_passed
            assert rep.replication_price_matches
            assert rep.interpretation_holds
            assert (rep.p_explosion > 0) == (rep.defect_dollar > 0)
            assert (rep.p_devaluation > 0) == (rep.defect_euro > 0)
