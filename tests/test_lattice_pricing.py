"""Exact pricing, superreplication LP, parity report and their properties."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualfx import ClaimError, InfinitePrice
from dualfx.lattice import (build_dual_tree, claim_combine,
                            parity_and_equivalence_report, price_on_tree,
                            random_claim, random_complete_dual_tree,
                            random_dual_tree, superreplicate_backward,
                            tree_claim, tree_euro_forward,
                            two_period_example, validate_claim,
                            verify_strategy)
from dualfx.lattice.pricing import TreeClaim
from dualfx.extended import ExtendedValue as EV
from dualfx.pricing import CLAIM_KINDS, PAYOFFS, make_claim


def test_euro_forward_decomposition_on_example():
    t = two_period_example()
    p = price_on_tree(t, tree_euro_forward(t))
    assert p.classical == Fraction(1, 4)
    assert p.correction == Fraction(3, 4)
    assert p.total_dollar == 1 == t.x0
    assert p.total_euro == 1
    assert p.euro_classical + p.euro_correction == p.total_euro


def test_call_put_and_parity_on_example():
    t = two_period_example()
    call = price_on_tree(t, tree_claim(t, "call", Fraction(1, 2)))
    put = price_on_tree(t, tree_claim(t, "put", Fraction(1, 2)))
    assert call.total_dollar == Fraction(3, 4)
    assert call.classical == 0
    assert put.total_dollar == Fraction(1, 4)
    assert call.total_dollar + Fraction(1, 2) == put.total_dollar + 1


def test_zero_claim_prices_to_zero():
    t = two_period_example()
    zero = TreeClaim({l.id: (EV.zero(), EV.zero()) for l in t.leaves()}, "zero")
    assert price_on_tree(t, zero).total_dollar == 0
    price, strategy = superreplicate_backward(t, zero)
    assert price == 0
    verify_strategy(t, zero, strategy, require_equality=True)


def test_superreplication_examples():
    t = two_period_example()
    price, strategy = superreplicate_backward(t, tree_euro_forward(t))
    assert price == 1
    # buy-and-hold one euro at every rebalancing node
    assert all(h == (0, 1) for h in strategy.holdings.values())
    price_call, _ = superreplicate_backward(
        t, tree_claim(t, "call", Fraction(1, 2)))
    assert price_call == Fraction(3, 4)


def test_digital_explosion_price():
    t = two_period_example()
    p = price_on_tree(t, tree_claim(t, "digital_explosion"))
    assert p.classical == 0
    assert p.total_dollar == Fraction(3, 4)


def test_self_quantoed_infinite_on_explosion_tree():
    t = two_period_example()
    with pytest.raises(InfinitePrice):
        price_on_tree(t, tree_claim(t, "self_quantoed", 1))
    with pytest.raises(InfinitePrice):
        superreplicate_backward(t, tree_claim(t, "self_quantoed", 1))


def test_claim_consistency_validated():
    t = two_period_example()
    bad = {l.id: (l.x, EV.of(2)) for l in t.leaves()}
    with pytest.raises(ClaimError):
        validate_claim(t, TreeClaim(bad, "broken"))


def test_price_identity_and_superrep_on_complete_trees():
    for seed in range(120):
        tree = random_complete_dual_tree(seed)
        claim = random_claim(tree, seed + 10_000)
        p = price_on_tree(tree, claim)
        assert p.total_euro == p.euro_classical + p.euro_correction
        assert p.total_dollar == p.total_euro * tree.x0
        price, strategy = superreplicate_backward(tree, claim)
        assert price == p.total_dollar
        verify_strategy(tree, claim, strategy, require_equality=True)


def test_strategy_is_self_financing_on_complete_trees():
    """Arriving wealth equals the rebalanced portfolio value at every
    supported interior node (no surplus disposal when markets are complete)."""
    for seed in range(30):
        tree = random_complete_dual_tree(seed + 60_000)
        claim = random_claim(tree, seed)
        _, strategy = superreplicate_backward(tree, claim)
        for nid, (e0, e1) in strategy.holdings.items():
            node = tree.node(nid)
            assert strategy.wealth_dollar[nid].fraction \
                == e0 + e1 * node.x.fraction


def test_superrep_dominates_formula_on_general_trees():
    for seed in range(80):
        tree = random_dual_tree(seed)
        claim = random_claim(tree, seed + 20_000)
        p = price_on_tree(tree, claim)
        price, strategy = superreplicate_backward(tree, claim)
        assert price >= p.total_dollar
        verify_strategy(tree, claim, strategy)


def test_three_branch_node_breaks_tightness():
    """With three supported branches the one-step market is incomplete and
    hedging costs strictly more than the two-measure expectation."""
    tri = build_dual_tree({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1",
         "branches": [["a", "1/2"], ["b", "1/4"], ["c", "1/4"]]},
        {"id": "a", "x": "2"}, {"id": "b", "x": "1"}, {"id": "c", "x": "1/2"}]})
    claim = tree_claim(tri, "call", 1)
    assert price_on_tree(tri, claim).total_dollar == Fraction(1, 4)
    price, strategy = superreplicate_backward(tri, claim)
    assert price == Fraction(1, 3)
    verify_strategy(tri, claim, strategy)   # still dominates everywhere


def test_corner_lp_agrees_with_scipy_linprog():
    """Independent route for the hedging program: the exact vertex optimum
    matches a floating-point simplex solve on random node problems."""
    import random as _random
    from scipy.optimize import linprog
    from dualfx.lattice.pricing import _solve_corner_lp

    rng = _random.Random(7)
    for trial in range(200):
        x = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        constraints = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["finite", "explosion", "devaluation"])
            c = Fraction(rng.randint(0, 9), rng.randint(1, 4))
            if kind == "finite":
                constraints.append((Fraction(1),
                                    Fraction(rng.randint(1, 9),
                                             rng.randint(1, 4)), c))
            elif kind == "explosion":
                constraints.append((Fraction(0), Fraction(1), c))
            else:
                constraints.append((Fraction(1), Fraction(0), c))
        # keep the program bounded the way real trees do: pin both axes
        constraints.append((Fraction(1), Fraction(0), Fraction(0)))
        constraints.append((Fraction(0), Fraction(1), Fraction(0)))
        e0, e1, cost = _solve_corner_lp(constraints, x)
        res = linprog(c=[1.0, float(x)],
                      A_ub=[[-float(a), -float(b)] for a, b, _ in constraints],
                      b_ub=[-float(c) for _, _, c in constraints],
                      bounds=[(None, None), (None, None)], method="highs")
        assert res.status == 0, trial
        assert abs(float(cost) - res.fun) < 1e-9, (trial, cost, res.fun)


def test_pricing_linearity_exact():
    rng = random.Random(99)
    for seed in range(40):
        tree = random_dual_tree(seed + 300)
        c1 = random_claim(tree, seed)
        c2 = random_claim(tree, seed + 1)
        a = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        combo = claim_combine(tree, c1, c2, a)
        p = price_on_tree(tree, combo)
        p1 = price_on_tree(tree, c1)
        p2 = price_on_tree(tree, c2)
        assert p.total_dollar == p1.total_dollar + a * p2.total_dollar


def test_correction_positive_iff_euro_payoff_on_explosion():
    for seed in range(60):
        tree = random_dual_tree(seed + 700)
        claim = random_claim(tree, seed + 41)
        p = price_on_tree(tree, claim)
        mass = sum((tree.prob_euro[l.id] for l in tree.leaves()
                    if l.x.is_infinite and claim.euro(l.id) > EV.zero()),
                   Fraction(0))
        assert (p.correction > 0) == (mass > 0)


def test_parity_report_on_example_tree():
    t = two_period_example()
    rows = parity_and_equivalence_report(t, [Fraction(1, 2)])
    row = rows[0]
    assert row.parity_residual == 0
    assert row.intl_call_residual == 0
    assert row.intl_put_residual == 0
    assert row.classical_violation == Fraction(-3, 4) == -row.explosion_mass


def test_parity_with_huge_strike_is_pure_correction():
    t = two_period_example()
    k = Fraction(10)   # above every finite terminal rate
    call = price_on_tree(t, tree_claim(t, "call", k))
    assert call.classical == 0
    assert call.total_dollar == call.correction
    assert parity_and_equivalence_report(t, [k])[0].parity_residual == 0


def test_parity_report_without_explosion_mass():
    t = build_dual_tree({"x0": "1", "periods": 2, "nodes": [
        {"id": "r", "x": "1", "branches": [["u", "2/3"], ["d", "1/3"]]},
        {"id": "u", "x": "2", "branches": [["uu", "2/3"], ["ud", "1/3"]]},
        {"id": "d", "x": "1/2", "branches": [["du", "2/3"], ["dd", "1/3"]]},
        {"id": "uu", "x": "4"}, {"id": "ud", "x": "1"},
        {"id": "du", "x": "1"}, {"id": "dd", "x": "1/4"}]})
    for row in parity_and_equivalence_report(t, [Fraction(1, 2), Fraction(2)]):
        assert row.parity_residual == 0
        assert row.intl_call_residual == 0
        assert row.intl_put_residual == 0
        assert row.classical_violation == 0
        assert row.explosion_mass == 0


def test_parity_residuals_on_random_trees():
    for seed in range(60):
        tree = random_dual_tree(seed + 1234)
        for row in parity_and_equivalence_report(tree, [Fraction(1, 3), 2]):
            assert row.parity_residual == 0
            assert row.intl_call_residual == 0
            assert row.intl_put_residual == 0
            assert row.classical_violation == -row.explosion_mass


def test_dollar_claims_consistency():
    t = two_period_example()
    for claim in (tree_claim(t, "dollar_call", 2),
                  tree_claim(t, "dollar_put", 2)):
        validate_claim(t, claim)


def test_tree_claim_labels():
    t = two_period_example()
    assert tree_claim(t, "call", "1/2").kind == "call_1/2"
    assert tree_claim(t, "dollar_put", 2).kind == "dollar_put_2"
    assert tree_claim(t, "euro_forward", 3).kind == "euro_forward"


@pytest.mark.parametrize("kind", CLAIM_KINDS)
def test_table_rational_and_float_evaluations_agree(kind):
    """The payoff table evaluated in Fractions on a tree and in floats by
    make_claim agree on every leaf: finite states, explosions, devaluations."""
    row = PAYOFFS[kind]
    strikes = ([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 3)]
               if row.takes_strike else [None])
    seen = set()
    for seed in range(60):
        tree = random_dual_tree(seed + 500)
        for k in strikes:
            exact = tree_claim(tree, kind, k)
            fk = None if k is None else float(k)
            approx = make_claim(kind, fk)
            for leaf in tree.leaves():
                d, e = exact.payoffs[leaf.id]
                seen.add(leaf.x.tag)
                if leaf.x.is_finite:
                    x = np.array([float(leaf.x.fraction)])
                    pairs = [(d, approx.dollar_finite(x)[0]),
                             (e, approx.euro_finite(x)[0])]
                elif leaf.x.is_infinite:
                    pairs = [(e, approx.euro_at_explosion)]
                else:
                    pairs = [(d, approx.dollar_finite(np.zeros(1))[0]),
                             (e, float(row.euro_at_devaluation(fk)))]
                for want, got in pairs:
                    assert math.isclose(want.as_float(), got, rel_tol=1e-12), \
                        (kind, k, leaf.id)
    assert seen == {"zero", "finite", "infinite"}
