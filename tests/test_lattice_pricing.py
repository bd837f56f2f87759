"""Exact pricing, superreplication LP, parity report and their properties."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dualfx import ClaimError, InfeasibleError, InfinitePrice
from dualfx.lattice import (build_dual_tree, claim_combine,
                            parity_and_equivalence_report, price_on_tree,
                            random_claim, random_complete_dual_tree,
                            random_dual_tree, superreplicate_backward,
                            tree_claim, tree_euro_forward,
                            two_period_example, validate_claim,
                            verify_strategy)
from dualfx.lattice.pricing import TreeClaim, _solve_hull_lp
from dualfx.extended import ExtendedValue as EV
from dualfx.physical import build_physical, consistency_checks
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
    zero = TreeClaim({l.id: EV.zero() for l in t.leaves()}, "zero")
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
    partial = {l.id: EV.of(2) for l in t.leaves() if l.id != "dn_dn"}
    with pytest.raises(ClaimError, match="not defined at leaf 'dn_dn'"):
        validate_claim(t, TreeClaim(partial, "broken"))
    with pytest.raises(ClaimError):
        price_on_tree(t, TreeClaim(partial, "broken"))


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
            assert strategy.wealth[nid] == e0 + e1 * node.x.fraction


def _absorbing_tree():
    """r (x = 1) explodes to e or moves to f (x = 1/2); f devalues to fz or
    moves to ff (x = 1).  Two supported branches per node: complete.  The
    tree carries e to the horizon as the leaf e~2."""
    return build_dual_tree({
        "x0": "1", "periods": 2, "root": "r",
        "nodes": [
            {"id": "r", "x": "1", "branches": [["e", "1/2"], ["f", "1/2"]]},
            {"id": "e", "x": "inf"},
            {"id": "f", "x": "1/2", "branches": [["fz", "1/2"], ["ff", "1"]]},
            {"id": "fz", "x": "0"},
            {"id": "ff", "x": "1"},
        ],
    })


def _absorbing_claim(**payoffs):
    # 2 euros at the explosion, 3 dollars at the devaluation, 1 dollar at ff
    values = {"e~2": 2, "fz": 3, "ff": 1, **payoffs}
    return TreeClaim({nid: EV.of(v) for nid, v in values.items()})


def test_strategy_wealth_is_in_the_unit_that_sees_the_node():
    tree = _absorbing_tree()
    price, strategy = superreplicate_backward(tree, _absorbing_claim())
    assert price == price_on_tree(tree, _absorbing_claim()).total_dollar == 3
    # euros held at the explosion, dollars held at the devaluation
    assert strategy.wealth["e"] == strategy.wealth["e~2"] \
        == strategy.holdings["r"][1] == 2
    assert strategy.wealth["fz"] == strategy.holdings["f"][0] == 3
    assert strategy.wealth["ff"] == 1
    verify_strategy(tree, _absorbing_claim(), strategy, require_equality=True)


@pytest.mark.parametrize("leaf", ["e~2", "fz"])
def test_verify_strategy_fails_where_payoff_exceeds_wealth(leaf):
    """The exploded leaf is compared in euros and the devalued one in
    dollars; in the other unit the wealth there would be infinite."""
    tree = _absorbing_tree()
    _, strategy = superreplicate_backward(tree, _absorbing_claim())
    assert strategy.wealth[leaf] > 0
    richer = _absorbing_claim(**{leaf: strategy.wealth[leaf] + 1})
    with pytest.raises(AssertionError, match=f"< payoff .* at '{leaf}'"):
        verify_strategy(tree, richer, strategy)


def test_verify_strategy_equality_fails_on_a_dominating_strategy():
    tree = _absorbing_tree()
    _, strategy = superreplicate_backward(tree, _absorbing_claim())
    poorer = _absorbing_claim(ff=Fraction(1, 2))
    verify_strategy(tree, poorer, strategy)
    with pytest.raises(AssertionError, match="!= payoff 1/2 at 'ff'"):
        verify_strategy(tree, poorer, strategy, require_equality=True)


def test_verify_strategy_rejects_negative_wealth():
    tree = _absorbing_tree()
    _, strategy = superreplicate_backward(tree, _absorbing_claim())
    strategy.wealth["f"] = Fraction(-1)
    with pytest.raises(AssertionError, match="negative wealth at 'f'"):
        verify_strategy(tree, _absorbing_claim(), strategy)


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


def _corner_lp_reference(points, floors, x):
    """The hedging program solved by vertex enumeration, the solver's
    reference: minimize e0 + e1*x subject to e0 + y*e1 >= r per point and
    e1 >= s per floor, over every pairwise intersection and axis intercept,
    keeping the smallest (cost, slack constraints, e0, e1)."""
    constraints = ([(Fraction(1), y, r) for y, r in points]
                   + [(Fraction(0), Fraction(1), s) for s in floors])
    candidates = []
    m = len(constraints)
    for i in range(m):
        a1, b1, c1 = constraints[i]
        if a1 != 0:
            candidates.append((c1 / a1, Fraction(0)))
        if b1 != 0:
            candidates.append((Fraction(0), c1 / b1))
        for j in range(i + 1, m):
            a2, b2, c2 = constraints[j]
            det = a1 * b2 - a2 * b1
            if det != 0:
                candidates.append(((c1 * b2 - c2 * b1) / det,
                                   (a1 * c2 - a2 * c1) / det))
    best, best_key = None, None
    for e0, e1 in candidates:
        if all(a * e0 + b * e1 >= c for a, b, c in constraints):
            cost = e0 + e1 * x
            slack = sum(1 for a, b, c in constraints if a * e0 + b * e1 != c)
            key = (cost, slack, e0, e1)
            if best_key is None or key < best_key:
                best, best_key = (e0, e1, cost), key
    return best


def _bounded(points, floors, x):
    return (any(y <= x for y, _ in points)
            and (any(y >= x for y, _ in points) or bool(floors)))


def _random_program(rng):
    """A node program with states drawn to hit y = x, repeated states and
    repeated floors often."""
    x = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    states = [x, x / 2, 2 * x, Fraction(0), Fraction(1), Fraction(2)]
    points = []
    for _ in range(rng.randint(0, 5)):
        y = (rng.choice(states) if rng.random() < 0.6
             else Fraction(rng.randint(0, 8), rng.randint(1, 3)))
        points.append((y, Fraction(rng.randint(0, 6), rng.randint(1, 3))))
    if points and rng.random() < 0.3:
        points.append(rng.choice(points))
    floors = [Fraction(rng.randint(0, 6), rng.randint(1, 3))
              for _ in range(rng.choice([0, 0, 1, 1, 2, 3]))]
    if floors and rng.random() < 0.3:
        floors.append(max(floors))
    return points, floors, x


def test_hull_solver_matches_enumeration_on_random_programs():
    rng = random.Random(2024)
    bounded = 0
    for trial in range(4000):
        points, floors, x = _random_program(rng)
        if not _bounded(points, floors, x):
            with pytest.raises(InfeasibleError):
                _solve_hull_lp(points, floors, x)
            continue
        bounded += 1
        assert _solve_hull_lp(points, floors, x) \
            == _corner_lp_reference(points, floors, x), (trial, points, floors, x)
    assert bounded > 2000


def test_hull_solver_matches_enumeration_on_tree_programs(monkeypatch):
    """Every node program that superreplication solves on 200 random trees,
    called directly and by the physical checks, equals the enumeration's
    optimum."""
    from dualfx.lattice import pricing as lpricing

    seen = {"programs": 0, "point_at_x": 0, "floors": 0}
    solve = lpricing._solve_hull_lp

    def checked(points, floors, x):
        got = solve(points, floors, x)
        assert got == _corner_lp_reference(points, floors, x), \
            (points, floors, x)
        seen["programs"] += 1
        seen["point_at_x"] += any(y == x for y, _ in points)
        seen["floors"] += bool(floors)
        return got

    monkeypatch.setattr(lpricing, "_solve_hull_lp", checked)
    for seed in range(100):
        kw = {"allow_explosion": seed % 4 not in (1, 3),
              "allow_devaluation": seed % 4 not in (2, 3)}
        for tree in (random_dual_tree(seed + 4000, **kw),
                     random_complete_dual_tree(seed + 4000, **kw)):
            claims = [random_claim(tree, seed), tree_claim(tree, "put", 1)]
            for claim in claims:
                superreplicate_backward(tree, claim)
            consistency_checks(build_physical(tree), claims)
    assert seen["programs"] > 3000
    assert seen["point_at_x"] > 0 and seen["floors"] > 0


# (points, floors, x, expected (e0, e1, cost)); every case is also checked
# against the enumeration
TIE_CASES = {
    # the envelope has a kink at the point at x: slopes in [0, 2] are
    # optimal; slope 0 binds three points and slope 2 only two
    "point at x": ([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)),
                    (Fraction(2), Fraction(2)), (Fraction(3), Fraction(2))],
                   [], Fraction(1), (Fraction(2), Fraction(0), Fraction(2))),
    # ... and with one point on each side both bind two: smaller e0 wins
    "point at x, binding tie": (
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)),
         (Fraction(2), Fraction(2))], [], Fraction(1),
        (Fraction(0), Fraction(2), Fraction(2))),
    # every slope is optimal; the line through the origin has e0 = 0
    "single child at x": ([(Fraction(3), Fraction(6))], [], Fraction(3),
                          (Fraction(0), Fraction(2), Fraction(6))),
    "single zero-requirement child at x": (
        [(Fraction(3), Fraction(0))], [], Fraction(3),
        (Fraction(0), Fraction(0), Fraction(0))),
    # repeated and lower points at the same states: the repeated point at 0
    # makes slope 2 bind four constraints against three at slope 0
    "duplicate states": ([(Fraction(1), Fraction(2)), (Fraction(1), Fraction(2)),
                          (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)),
                          (Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))],
                         [], Fraction(1),
                         (Fraction(0), Fraction(2), Fraction(2))),
    # the envelope's slope at x is 1/2, below the floor 1
    "floor above hi": ([(Fraction(0), Fraction(1)), (Fraction(2), Fraction(2))],
                       [Fraction(1), Fraction(0)], Fraction(1),
                       (Fraction(1), Fraction(1), Fraction(2))),
    # every state below x: only the floor bounds the slope
    "floor with every state below x": (
        [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))],
        [Fraction(1, 2)], Fraction(2),
        (Fraction(1), Fraction(1, 2), Fraction(2))),
    # slopes in [1, 2] are optimal; two exploded children bind at slope 1
    # and outnumber the one point binding at slope 2
    "repeated floor": ([(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(0)),
                        (Fraction(0), Fraction(0))],
                       [Fraction(1), Fraction(1)], Fraction(1),
                       (Fraction(1), Fraction(1), Fraction(2))),
    # ... while one exploded child only ties it, and the smaller e0 wins
    "single floor": ([(Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(0)),
                      (Fraction(0), Fraction(0))],
                     [Fraction(1)], Fraction(1),
                     (Fraction(0), Fraction(2), Fraction(2))),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_hull_solver_tie_cases(case):
    points, floors, x, expected = TIE_CASES[case]
    assert _corner_lp_reference(points, floors, x) == expected
    assert _solve_hull_lp(points, floors, x) == expected


@pytest.mark.parametrize("points,floors,x", [
    ([(Fraction(2), Fraction(1)), (Fraction(3), Fraction(1))], [Fraction(1)],
     Fraction(1)),                                   # every state above x
    ([(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))], [],
     Fraction(1)),                                   # below x, no floor
    ([], [Fraction(1)], Fraction(1)),                # exploded children only
    ([], [], Fraction(1)),                           # no supported branch
])
def test_unbounded_hedging_program_raises(points, floors, x):
    with pytest.raises(InfeasibleError):
        _solve_hull_lp(points, floors, x)


def _linprog(points, floors, x):
    """The hedging program as a floating-point simplex solve."""
    from scipy.optimize import linprog

    return linprog(c=[1.0, float(x)],
                   A_ub=[[-1.0, -float(y)] for y, _ in points]
                   + [[0.0, -1.0] for _ in floors],
                   b_ub=[-float(r) for _, r in points]
                   + [-float(s) for s in floors],
                   bounds=[(None, None), (None, None)], method="highs")


def test_unbounded_exactly_where_linprog_says_so():
    rng = random.Random(11)
    for trial in range(300):
        points, floors, x = _random_program(rng)
        if not points:
            continue
        res = _linprog(points, floors, x)
        assert res.status in (0, 3), trial
        if res.status == 3:
            with pytest.raises(InfeasibleError):
                _solve_hull_lp(points, floors, x)
        else:
            _, _, cost = _solve_hull_lp(points, floors, x)
            assert abs(float(cost) - res.fun) < 1e-9, trial


def test_corner_lp_agrees_with_scipy_linprog():
    """Independent route for the hedging program: the exact hull optimum
    matches a floating-point simplex solve on random node problems."""
    import random as _random

    rng = _random.Random(7)
    for trial in range(200):
        x = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        points = []
        floors = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["finite", "explosion", "devaluation"])
            c = Fraction(rng.randint(0, 9), rng.randint(1, 4))
            if kind == "finite":
                points.append((Fraction(rng.randint(1, 9),
                                        rng.randint(1, 4)), c))
            elif kind == "explosion":
                floors.append(c)
            else:
                points.append((Fraction(0), c))
        # keep the program bounded the way real trees do: pin both axes
        points.append((Fraction(0), Fraction(0)))
        floors.append(Fraction(0))
        e0, e1, cost = _solve_hull_lp(points, floors, x)
        res = _linprog(points, floors, x)
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
                    if l.x.is_infinite and claim.payoffs[l.id] > EV.zero()),
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


@pytest.mark.parametrize("kind", CLAIM_KINDS)
def test_table_claims_pass_validation(kind):
    """tree_claim does not check its own output; every kind of the payoff
    table must pass the pricers' check on every tree."""
    strikes = ([Fraction(1, 3), Fraction(1), Fraction(7, 3)]
               if PAYOFFS[kind].takes_strike else [None])
    for seed in range(40):
        tree = (random_dual_tree(seed + 900) if seed % 2
                else random_complete_dual_tree(seed + 900))
        for k in strikes:
            validate_claim(tree, tree_claim(tree, kind, k))


def test_tree_claim_labels():
    t = two_period_example()
    assert tree_claim(t, "call", "1/2").kind == "call_1/2"
    assert tree_claim(t, "dollar_put", 2).kind == "dollar_put_2"
    assert tree_claim(t, "euro_forward", 3).kind == "euro_forward"


@pytest.mark.parametrize("kind", CLAIM_KINDS)
def test_table_rational_and_float_evaluations_agree(kind):
    """The payoff table evaluated in Fractions on a tree and in floats by
    make_claim agree on every leaf: finite states, explosions, devaluations.
    The table's euro column is the dollar column over the rate, exactly."""
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
                v = exact.payoffs[leaf.id]
                seen.add(leaf.x.tag)
                if leaf.x.is_finite:
                    x = leaf.x.fraction
                    assert row.euro(x, k) == row.dollar(x, k) / x, \
                        (kind, k, leaf.id)
                    fx = np.array([float(x)])
                    pairs = [(v, approx.dollar_finite(fx)[0]),
                             (v * leaf.x.reciprocal(),
                              approx.euro_finite(fx)[0])]
                elif leaf.x.is_infinite:
                    pairs = [(v, approx.euro_at_explosion)]
                else:
                    pairs = [(v, approx.dollar_finite(np.zeros(1))[0])]
                for want, got in pairs:
                    assert math.isclose(want.as_float(), got, rel_tol=1e-12), \
                        (kind, k, leaf.id)
    assert seen == {"zero", "finite", "infinite"}
