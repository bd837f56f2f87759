"""Exact pricing, superreplication LP, parity report and their properties."""

import itertools
import math
import random
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dualfx import ClaimError, ConfigError, InfeasibleError, InfinitePrice
from dualfx.inputs import CLAIM_KINDS, PAYOFFS
from dualfx.lattice import (ParityRow, bayes_check, build_dual_tree,
                            parity_and_equivalence_report, period_rule,
                            price_on_tree,
                            random_claim, random_complete_dual_tree,
                            random_dual_tree, superreplicate_backward,
                            tree_claim, tree_euro_forward,
                            two_period_example, validate_claim,
                            verify_strategy)
from dualfx.lattice.pricing import TreeClaim, _solve_hull_lp
from dualfx.lattice.tree import _over_lcm, terminal_law
from dualfx.physical import build_physical, consistency_checks
from dualfx.pricing import make_claim


def test_euro_forward_decomposition_on_example():
    t = two_period_example()
    p = price_on_tree(t, tree_euro_forward(t))
    assert p.classical == Fraction(1, 4)
    assert p.correction == Fraction(3, 4)
    assert p.total_dollar == 1 == t.x0
    assert p.total_euro == 1
    assert p.euro_classical + p.euro_correction == p.total_euro


def test_nodes_neither_measure_sees_are_skipped():
    """u (x = 2) has mass 0 under both measures, so neither it nor its child
    is supported: the formula skips u1's infinite payoff, the hedge leaves no
    wealth and no holding there, and bayes_check no residual."""
    t = build_dual_tree({"x0": "1", "periods": 2, "nodes": [
        {"id": "r", "x": "1",
         "branches": [["a", "1/4"], ["b", "3/4"], ["u", "0"]]},
        *({"id": nid, "x": x, "branches": [[f"{nid}1", "1"]]}
          for nid, x in (("a", "1/2"), ("b", "3/2"), ("u", "2"))),
        {"id": "a1", "x": "1/2"}, {"id": "b1", "x": "3/2"},
        {"id": "u1", "x": "2"}]})
    assert t.supported == {"r", "a", "b", "a1", "b1"}
    claim = TreeClaim({"a1": 1, "b1": 2, "u1": None})
    assert price_on_tree(t, claim).total_dollar == Fraction(3, 2)
    cost, strategy = superreplicate_backward(t, claim)
    assert cost == Fraction(3, 2)
    assert not {"u", "u1"} & (strategy.wealth.keys() | strategy.holdings.keys())
    verify_strategy(t, claim, strategy, require_equality=True)
    residuals = bayes_check(t, {"a1": 1, "b1": 2, "u1": 5},
                            period_rule(t, 1), period_rule(t, 2))
    assert residuals == {"a": 0, "b": 0}


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
    zero = TreeClaim({nid: Fraction(0) for nid in t.leaves}, "zero")
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
    partial = {nid: Fraction(2) for nid in t.leaves if nid != "dn_dn"}
    with pytest.raises(ClaimError, match="not defined at leaf 'dn_dn'"):
        validate_claim(t, TreeClaim(partial, "broken"))
    with pytest.raises(ClaimError):
        price_on_tree(t, TreeClaim(partial, "broken"))


@pytest.mark.parametrize("payoff, shown", [
    (Fraction(-1, 2), "Fraction(-1, 2)"), (-1, "-1"), (0.5, "0.5"),
    ("1/2", "'1/2'"), (True, "True"), (False, "False"),
], ids=["negative_fraction", "negative_int", "float", "string", "bool",
        "bool_false"])
def test_payoffs_must_be_nonnegative_rationals_or_none(payoff, shown):
    """The check `bayes_check` and `martingale_transfer_check` make: a bool
    is not the payoff 1 (or 0), though `isinstance(True, int)` holds."""
    message = f"payoff {shown} at leaf 'dn_dn' is not an int or Fraction >= 0"
    t = two_period_example()
    claim = TreeClaim({nid: payoff if nid == "dn_dn" else Fraction(1)
                       for nid in t.leaves}, "bad")
    for check in (validate_claim, price_on_tree, superreplicate_backward):
        with pytest.raises(ClaimError, match=re.escape(message)):
            check(t, claim)
    # ints, Fractions and None (infinite) pass
    for v in (0, 3, Fraction(1, 3), None):
        validate_claim(t, TreeClaim({nid: v for nid in t.leaves}))


@pytest.mark.parametrize("denominator", [0, -3, True, 2.0, Fraction(1, 2)])
def test_claim_denominator_must_be_an_int_at_least_1(denominator):
    t = two_period_example()
    claim = TreeClaim({nid: 1 for nid in t.leaves}, "bad", denominator)
    for check in (validate_claim, price_on_tree, superreplicate_backward):
        with pytest.raises(ClaimError, match=re.escape(
                f"claim denominator {denominator!r} is not an int >= 1")):
            check(t, claim)


def test_a_leaf_pays_its_payoff_over_the_denominator():
    t = two_period_example()
    over = TreeClaim({nid: i for i, nid in enumerate(t.leaves)}, "c", 3)
    exact = TreeClaim({nid: Fraction(i, 3) for i, nid in enumerate(t.leaves)})
    assert price_on_tree(t, over) == price_on_tree(t, exact)
    cost, strategy = superreplicate_backward(t, over)
    assert (cost, strategy) == superreplicate_backward(t, exact)
    verify_strategy(t, over, strategy, require_equality=True)


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
            node = tree.nodes[nid]
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
    return TreeClaim({nid: Fraction(v) for nid, v in values.items()})


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


def _pair(r):
    return r.numerator, r.denominator


def _as_fractions(got):
    """`_solve_hull_lp`'s ints (m, p, d0, d1, c) as (e0, e1, cost)."""
    m, p, d0, d1, c = got
    return Fraction(m, d0), Fraction(p, d1), Fraction(c, d0)


def _solve(points, floors, x):
    """`_solve_hull_lp` on a program of Fractions: the states put over their
    common denominator as the tree's numerators are, the requirements and
    floors as (numerator, denominator) pairs, and the result as Fractions."""
    ys, d = _over_lcm([x, *(y for y, _ in points)])
    return _as_fractions(_solve_hull_lp(
        [(y, _pair(r)) for y, (_, r) in zip(ys[1:], points)],
        [_pair(f) for f in floors], ys[0], d))


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
                _solve(points, floors, x)
            continue
        bounded += 1
        assert _solve(points, floors, x) \
            == _corner_lp_reference(points, floors, x), (trial, points, floors, x)
    assert bounded > 2000


def test_hull_solver_matches_enumeration_on_tree_programs(monkeypatch):
    """Every node program that superreplication solves on 200 random trees,
    called directly and by the physical checks, equals the enumeration's
    optimum."""
    from dualfx.lattice import pricing as lpricing

    seen = {"programs": 0, "point_at_x": 0, "floors": 0}
    solve = lpricing._solve_hull_lp

    def checked(points, floors, x, d_x):
        got = solve(points, floors, x, d_x)
        assert all(type(i) is int for i in
                   [x, d_x, *got, *(i for y, r in points for i in (y, *r)),
                    *(i for f in floors for i in f)]), (points, floors, got)
        # the states arrive as integer numerators over d_x, the requirements
        # and floors as (numerator, denominator) pairs
        points = [(Fraction(y, d_x), Fraction(*r)) for y, r in points]
        floors = [Fraction(*f) for f in floors]
        x = Fraction(x, d_x)
        assert _as_fractions(got) == _corner_lp_reference(points, floors, x), \
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


# points on both edges of the envelope at x = 2: four on the edge of slope 1,
# three on the edge of slope 0
_TWO_EDGES = [(Fraction(y), Fraction(r)) for y, r in
              [(0, 0), (1, 1), ("3/2", "3/2"), (2, 2), (3, 2), (4, 2)]]

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
    # slopes in [0, 1] are optimal: slope 1 binds four points, slope 0 three
    "edges at x, hi binds more": (_TWO_EDGES, [], Fraction(2),
                                  (Fraction(0), Fraction(1), Fraction(2))),
    # ... two floors at 0 lift slope 0 to five constraints
    "edges at x, floors make lo bind more": (
        _TWO_EDGES, [Fraction(0), Fraction(0)], Fraction(2),
        (Fraction(2), Fraction(0), Fraction(2))),
    # ... one floor at 0 ties them at four, and hi, the smaller e0, wins
    "edges at x, floor ties": (_TWO_EDGES, [Fraction(0)], Fraction(2),
                               (Fraction(0), Fraction(1), Fraction(2))),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_hull_solver_tie_cases(case):
    points, floors, x, expected = TIE_CASES[case]
    assert _corner_lp_reference(points, floors, x) == expected
    assert _solve(points, floors, x) == expected


# programs with three or more points at one state: below, at or above x
# by the x each is solved at, and every child at one state
_REPEATED_STATES = [
    [(Fraction(1), Fraction(r)) for r in (0, 2, 1, 2)]
    + [(Fraction(3), Fraction(3))],
    [(Fraction(2), Fraction(r)) for r in (1, 4, 4)]
    + [(Fraction(0), Fraction(0)), (Fraction(4), Fraction(2))],
    [(Fraction(1, 2), Fraction(r, 3)) for r in (3, 1, 2)],
]


@pytest.mark.parametrize("points", _REPEATED_STATES)
@pytest.mark.parametrize("floors", [[], [Fraction(1)],
                                    [Fraction(1), Fraction(1)],
                                    [Fraction(0), Fraction(5, 2)]])
def test_hull_solver_on_repeated_states_in_every_order(points, floors):
    """The solver keeps the highest requirement per state whatever the order
    of the points, and counts repeated points as binding constraints."""
    solved = 0
    xs = {y for y, _ in points} | {Fraction(1, 4), Fraction(3, 2), Fraction(5)}
    for x in sorted(xs):
        if not _bounded(points, floors, x):
            for order in itertools.permutations(points):
                with pytest.raises(InfeasibleError):
                    _solve(list(order), floors, x)
            continue
        want = _corner_lp_reference(points, floors, x)
        for order in itertools.permutations(points):
            assert _solve(list(order), floors, x) == want, (order, floors, x)
        solved += 1
    assert solved


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
        _solve(points, floors, x)


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
                _solve(points, floors, x)
        else:
            _, _, cost = _solve(points, floors, x)
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
        e0, e1, cost = _solve(points, floors, x)
        res = _linprog(points, floors, x)
        assert res.status == 0, trial
        assert abs(float(cost) - res.fun) < 1e-9, (trial, cost, res.fun)


def _price_leaf_by_leaf(tree, claim):
    """The pricing formula leaf by leaf, with the euro payoff at a finite
    rate formed as the payoff over the rate, and 0 at a devalued rate."""
    validate_claim(tree, claim)
    classical = correction = euro_classical = euro_correction = Fraction(0)
    for leaf in (n for n in tree.nodes.values() if n.is_terminal):
        pd, pe = tree.prob_dollar[leaf.id], tree.prob_euro[leaf.id]
        v = claim.payoffs[leaf.id]     # None is an infinite payoff
        v = None if v is None else Fraction(v, claim.denominator)
        if pd > 0:
            if v is None:
                raise InfinitePrice(
                    f"dollar payoff infinite on supported leaf {leaf.id!r}")
            classical += pd * v
            if leaf.x.is_zero:
                euro_correction += pd * v / tree.x0
        if pe > 0:
            # v * (1/x), where 1/0 = inf and inf * 0 = 0
            if leaf.x.is_infinite or v == 0:
                e = v
            elif leaf.x.is_zero or v is None:
                e = None
            else:
                e = v / leaf.x.fraction
            if e is None:
                raise InfinitePrice(
                    f"euro payoff infinite on supported leaf {leaf.id!r}")
            euro_classical += pe * e
            if leaf.x.is_infinite:
                correction += tree.x0 * pe * e
    total = classical + correction
    return (classical, correction, total, total / tree.x0, euro_classical,
            euro_correction)


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_price_on_tree_matches_leaf_by_leaf_formula(generate):
    strikes = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    for seed in range(300):
        tree = generate(seed)
        claims = [random_claim(tree, seed)]
        for kind in CLAIM_KINDS:
            for k in strikes if PAYOFFS[kind].takes_strike else [None]:
                claims.append(tree_claim(tree, kind, k))
        for claim in claims:
            try:
                want = _price_leaf_by_leaf(tree, claim)
            except InfinitePrice as exc:
                with pytest.raises(InfinitePrice, match=re.escape(str(exc))):
                    price_on_tree(tree, claim)
                continue
            p = price_on_tree(tree, claim)
            assert (p.classical, p.correction, p.total_dollar, p.total_euro,
                    p.euro_classical, p.euro_correction) == want, \
                (seed, claim.kind)


def _parity_rows_by_price(tree, strikes):
    """The parity report as first written: each row from the `price_on_tree`
    decompositions of the four claims of its strike, in Fraction arithmetic,
    with the explosion mass from the Qe path probabilities."""
    mass = tree.x0 * sum((tree.prob_euro[nid] for nid in tree.leaves
                          if tree.nodes[nid].x.is_infinite), Fraction(0))
    rows = []
    for k in strikes:
        call = price_on_tree(tree, tree_claim(tree, "call", k))
        put = price_on_tree(tree, tree_claim(tree, "put", k))
        d_call = price_on_tree(tree, tree_claim(tree, "dollar_call", 1 / k))
        d_put = price_on_tree(tree, tree_claim(tree, "dollar_put", 1 / k))
        pe_put = d_put.euro_classical + d_put.euro_correction
        pe_call = d_call.euro_classical + d_call.euro_correction
        rows.append(ParityRow(
            strike=k,
            call_price=call.total_dollar,
            put_price=put.total_dollar,
            parity_residual=call.total_dollar + k - put.total_dollar - tree.x0,
            intl_call_residual=call.total_dollar - tree.x0 * k * pe_put,
            intl_put_residual=put.total_dollar - tree.x0 * k * pe_call,
            classical_violation=call.classical + k - put.classical - tree.x0,
            explosion_mass=mass))
    return rows


def _wealth_oracle(tree, strategy):
    """The wealth at each supported node in Fraction arithmetic, from the
    holdings in force at its parent (the parent's own, else the ones in
    force above it): e1 where x = inf, e0 where x = 0, else e0 + e1*x."""
    wealth = {tree.root: strategy.price}
    held = {tree.root: strategy.holdings[tree.root]}
    for node in tree.nodes.values():
        if node.parent is None or node.id not in tree.supported:
            continue
        e0, e1 = held[node.parent]
        wealth[node.id] = (e1 if node.x.is_infinite else e0 if node.x.is_zero
                           else e0 + e1 * node.x.fraction)
        held[node.id] = strategy.holdings.get(node.id, (e0, e1))
    return wealth


PARITY_STRIKES = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
                  Fraction(7, 3)]


# seed 3 has only finite leaves, seed 9 exploded and devalued ones too
@pytest.mark.parametrize("seed", [3, 9])
def test_price_on_tree_reads_only_the_terminal_law(seed):
    """The pricer, the table claims and the parity report need the leaves,
    their integer numerators, the common denominators and x0, and nothing of
    the nodes' states or branches."""
    tree = random_dual_tree(seed, 4)
    law = SimpleNamespace(leaves=tree.leaves, numerators=tree.numerators,
                          denominators=tree.denominators, x0=tree.x0)
    table = [(kind, Fraction(3, 2) if PAYOFFS[kind].takes_strike else None)
             for kind in CLAIM_KINDS]
    claims = [tree_claim(law, kind, k) for kind, k in table]
    assert claims == [tree_claim(tree, kind, k) for kind, k in table]
    assert parity_and_equivalence_report(law, PARITY_STRIKES) \
        == parity_and_equivalence_report(tree, PARITY_STRIKES)
    for claim in [random_claim(tree, seed)] + claims:
        try:
            want = price_on_tree(tree, claim)
        except InfinitePrice as exc:
            with pytest.raises(InfinitePrice, match=re.escape(str(exc))):
                price_on_tree(law, claim)
            continue
        assert price_on_tree(law, claim) == want, claim.kind


def test_a_walk_law_with_no_tree_prices_through_the_report():
    """recip_bessel's walk over N = 100 periods, x0 = 1: under Qe, Y = 1/X
    steps +-h = 1/10 from 1 with mass 1/2 each way and is killed at 0, where
    X explodes.  Y = jh is reached alive on C(N, (N + j - 10)/2) - C(N, (N +
    j + 10)/2) of the 2^N paths (reflection), and Q$ is the h-transform
    pd = pe j / 10.  No `DualTree` holds the law (2^100 paths), yet the
    report prices it: parity and both cross-currency identities hold
    exactly, the classical violation is minus the explosion mass, and
    E_Q$[X_T] = x0 (1 - Qe(X_T = inf))."""
    n, j0 = 100, 10
    alive = {j: math.comb(n, (n + j - j0) // 2)
             - math.comb(n, (n + j + j0) // 2) for j in range(2, n + j0 + 1, 2)}
    exploded = 2**n - sum(alive.values())
    d_x = math.lcm(*alive)      # x = 10/j over Dx, 1/x = j/10 over 10
    numerators = {j: (m * j, m, j0 * d_x // j, j) for j, m in alive.items()}
    numerators["inf"] = (0, exploded, None, None)
    law = terminal_law(SimpleNamespace(
        x0=Fraction(1), denominators=(2**n * j0, 2**n, d_x, j0),
        leaves=list(numerators), numerators=numerators))
    assert law.rows[-1][1] == 2**n * j0        # Q$ has mass 1
    assert Fraction(law.rows[-1][2], 2**n * j0 * d_x) \
        == 1 - Fraction(exploded, 2**n) < 1
    pd = {Fraction(j0, j): Fraction(m * j, 2**n * j0) for j, m in alive.items()}
    for row in parity_and_equivalence_report(law, [Fraction(1, 2), 1, 2]):
        k = row.strike
        assert row.parity_residual == row.intl_call_residual \
            == row.intl_put_residual == 0
        assert row.classical_violation == -row.explosion_mass \
            == -Fraction(exploded, 2**n)
        assert row.call_price == row.explosion_mass + sum(
            p * max(x - k, 0) for x, p in pd.items())
        assert row.put_price == sum(p * max(k - x, 0) for x, p in pd.items())


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_parity_report_matches_the_price_decompositions(generate):
    for seed in range(300):
        tree = generate(seed)
        try:
            want = _parity_rows_by_price(tree, PARITY_STRIKES)
        except InfinitePrice as exc:
            with pytest.raises(InfinitePrice, match=re.escape(str(exc))):
                parity_and_equivalence_report(tree, PARITY_STRIKES)
            continue
        assert parity_and_equivalence_report(tree, PARITY_STRIKES) == want, \
            seed


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_a_multi_strike_report_equals_its_one_strike_reports(generate):
    """One leaf pass sums every table of a report, each over its own integer
    scaling: Dx*q for the call and put at k = p/q, Dx*p for the dollar legs
    at 1/k; strikes of distinct denominators and numerators keep them apart."""
    strikes = [Fraction(2, 3), Fraction(5, 4), Fraction(7, 5)]
    for seed in range(200):
        tree = generate(seed)
        assert parity_and_equivalence_report(tree, strikes) == [
            row for k in strikes
            for row in parity_and_equivalence_report(tree, [k])], seed


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_wealth_matches_the_holdings_in_force_at_the_parent(generate):
    seen = {"inf": 0, "zero": 0, "finite": 0}
    for seed in range(300):
        tree = generate(seed)
        for claim in (random_claim(tree, seed), tree_claim(tree, "put", 1)):
            _, strategy = superreplicate_backward(tree, claim)
            assert strategy.wealth == _wealth_oracle(tree, strategy), \
                (seed, claim.kind)
            for nid in strategy.wealth:
                x = tree.nodes[nid].x
                seen["inf" if x.is_infinite else "zero" if x.is_zero
                     else "finite"] += 1
    assert min(seen.values()) > 0


def test_over_lcm_matches_fraction_sum():
    rng = random.Random(5)
    primes = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**9 + 7]
    cases = [
        [],
        [(0, 1), (0, 7)],
        [(0, 3), (5, 6), (0, 9), (-5, 6)],
        [(6, 4), (3, 9), (10, 15)],                       # unreduced terms
        [(rng.randrange(1, p), p) for p in primes],       # coprime denominators
        [(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**20))
         for _ in range(50)],
    ]
    for terms in cases:
        values = [Fraction(n, d) for n, d in terms]
        nums, d = _over_lcm(values)
        assert d == math.lcm(*[v.denominator for v in values])
        assert [Fraction(n, d) for n in nums] == values
        assert Fraction(sum(nums), d) == sum(values, Fraction(0))


def test_pricing_linearity_exact():
    rng = random.Random(99)
    for seed in range(40):
        tree = random_dual_tree(seed + 300)
        c1 = random_claim(tree, seed)
        c2 = random_claim(tree, seed + 1)
        a = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        combo = TreeClaim({nid: v + a * c2.payoffs[nid]
                           for nid, v in c1.payoffs.items()})
        p = price_on_tree(tree, combo)
        p1 = price_on_tree(tree, c1)
        p2 = price_on_tree(tree, c2)
        assert p.total_dollar == p1.total_dollar + a * p2.total_dollar


def test_correction_positive_iff_euro_payoff_on_explosion():
    for seed in range(60):
        tree = random_dual_tree(seed + 700)
        claim = random_claim(tree, seed + 41)
        p = price_on_tree(tree, claim)
        mass = sum((tree.prob_euro[nid] for nid in tree.leaves
                    if tree.nodes[nid].x.is_infinite
                    and claim.payoffs[nid] != 0),
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


@pytest.mark.parametrize("strike, message", [
    (math.nan, "needs a positive finite strike, got nan"),
    (math.inf, "needs a positive finite strike, got inf"),
    (True, "needs a positive finite strike, got True"),
    (None, "needs a positive finite strike, got None"),
    (0, "needs a positive finite strike, got 0"),
    (-0.5, "needs a positive finite strike, got -0.5"),
    (Fraction(-1, 3), "needs a positive finite strike, got Fraction(-1, 3)"),
], ids=["nan", "inf", "bool", "none", "zero", "negative_float",
        "negative_fraction"])
def test_parity_report_refuses_a_strike_that_is_not_positive(strike, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parity_and_equivalence_report(two_period_example(), [strike])


def test_parity_report_reads_a_float_strike_by_its_shortest_repr():
    t = two_period_example()
    row, = parity_and_equivalence_report(t, [0.1])
    assert row.strike == Fraction(1, 10)
    assert row == parity_and_equivalence_report(t, [Fraction(1, 10)])[0]
    assert parity_and_equivalence_report(t, [2.0, "7/3"]) \
        == parity_and_equivalence_report(t, [2, Fraction(7, 3)])


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


def test_tree_claim_reads_the_strike_as_the_parity_report_does():
    """A float strike is its shortest decimal form, not its binary value."""
    t = two_period_example()
    for strike in (0.1, np.float64(0.1), "1/10", Fraction(1, 10)):
        claim = tree_claim(t, "call", strike)
        assert claim.kind == "call_1/10"
        assert claim.payoffs == tree_claim(t, "call", Fraction(1, 10)).payoffs
    row, = parity_and_equivalence_report(t, [0.1])
    assert row.call_price \
        == price_on_tree(t, tree_claim(t, "call", 0.1)).total_dollar


@pytest.mark.parametrize("strike", [True, False])
def test_tree_claim_refuses_a_bool_strike(strike):
    with pytest.raises(ConfigError, match=re.escape(
            f"claim kind 'call' needs a positive finite strike, got {strike}")):
        tree_claim(two_period_example(), "call", strike)


@pytest.mark.parametrize("strike", ["1/0", "x", "-1/3", "0"])
def test_tree_claim_and_parity_report_refuse_the_same_text_strikes(strike):
    """One reader, `inputs.payoff_row`, refuses a text strike for both, a
    zero denominator included."""
    message = re.escape(f"needs a positive finite strike, got {strike!r}")
    t = two_period_example()
    with pytest.raises(ConfigError, match=message):
        tree_claim(t, "call", strike)
    with pytest.raises(ConfigError, match=message):
        parity_and_equivalence_report(t, [strike])


@pytest.mark.parametrize("kind", CLAIM_KINDS)
def test_table_rational_and_float_evaluations_agree(kind):
    """The payoff table evaluated on a tree's integer numerators, in
    Fractions and in floats by make_claim agree on every leaf: finite
    states, explosions, devaluations.  The table's euro column is the dollar
    column over the rate, exactly."""
    row = PAYOFFS[kind]
    for generate in (random_dual_tree, random_complete_dual_tree):
        for seed in range(300):
            tree = generate(seed)
            for k in ([Fraction(1, 2), Fraction(1), Fraction(3, 2),
                       Fraction(2)] if row.takes_strike else [None]):
                claim = tree_claim(tree, kind, k)
                for leaf in map(tree.nodes.get, tree.leaves):
                    v = claim.payoffs[leaf.id]
                    want = (row.euro_at_explosion(k) if leaf.x.is_infinite
                            else row.dollar(leaf.x.fraction, k))
                    assert (math.inf if v is None
                            else Fraction(v, claim.denominator)) == want, \
                        (generate.__name__, seed, kind, k, leaf.id)
    strikes = ([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 3)]
               if row.takes_strike else [None])
    seen = set()
    for seed in range(60):
        tree = random_dual_tree(seed + 500)
        for k in strikes:
            exact = tree_claim(tree, kind, k)
            fk = None if k is None else float(k)
            approx = make_claim(kind, fk)
            for leaf in map(tree.nodes.get, tree.leaves):
                v = exact.payoffs[leaf.id]
                v = None if v is None else Fraction(v, exact.denominator)
                if leaf.x.is_finite:
                    seen.add("finite")
                    x = leaf.x.fraction
                    assert row.euro(x, k) == row.dollar(x, k) / x, \
                        (kind, k, leaf.id)
                    fx = np.array([float(x)])
                    pairs = [(v, approx.dollar_finite(fx)[0]),
                             (v / x, approx.euro_finite(fx)[0])]
                elif leaf.x.is_infinite:
                    seen.add("infinite")
                    pairs = [(math.inf if v is None else v,
                              approx.euro_at_explosion)]
                else:
                    seen.add("zero")
                    pairs = [(v, approx.dollar_finite(np.zeros(1))[0])]
                for want, got in pairs:
                    assert math.isclose(float(want), got, rel_tol=1e-12), \
                        (kind, k, leaf.id)
    assert seen == {"zero", "finite", "infinite"}
