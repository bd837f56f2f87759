"""Exact two-measure pricing and superreplication on dual trees.

The price of a claim, paying D$ in dollars or De = D$ / X_T in euros, is the
classical dollar expectation plus a correction carrying the explosion mass
that only the euro measure sees:

    p$ = E_Q$[D$] + x0 * E_Qe[De 1{X_T = inf}]
    pe = E_Qe[De] + (1/x0) * E_Q$[D$ 1{X_T = 0}] = p$ / x0.

`superreplicate_backward` re-derives the same number by dynamic programming:
at every node a two-asset portfolio (money market, euros) is chosen so that
next-period wealth dominates the required wealth under both measures.  The
two-variable linear program is solved exactly on the upper concave hull of
the children's (state, required dollars) points, with the exploded children's
required euros as floors on the euro holding.  On trees whose
nodes carry at most two supported branches (the complete-market case the
pricing theorem assumes) the program is tight and the two routes agree
exactly; with three or more supported branches the hedging cost is strictly
larger, which `test_lattice_pricing` pins down with a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..errors import ClaimError, InfeasibleError, InfinitePrice
from ..extended import ExtendedValue
from ..pricing import payoff_row
from .tree import DualTree

EV = ExtendedValue


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeClaim:
    """One payoff per terminal node, in the currency of the measure that sees
    the node: dollars where the rate is finite or zero, euros where it is
    infinite.  The euro payoff at a finite or zero rate x is the dollar
    payoff times 1/x (inf * 0 = 0), worked out where it is read."""

    payoffs: Mapping[str, ExtendedValue]
    kind: str = "custom"


def validate_claim(tree: DualTree, claim: TreeClaim) -> None:
    """Raise ClaimError unless the claim is defined at every leaf.

    The pricers call this once per pricing call, where a claim meets a tree.
    """
    for leaf in tree.leaves():
        if leaf.id not in claim.payoffs:
            raise ClaimError(f"claim not defined at leaf {leaf.id!r}")


def _in_euros(v: ExtendedValue, x: ExtendedValue) -> ExtendedValue:
    """The euro payoff at a leaf with rate x whose stored payoff is v."""
    return v if x.is_infinite else v * x.reciprocal()


def tree_claim(tree: DualTree, kind: str, strike=None) -> TreeClaim:
    """Exact leaf payoffs of a claim kind from the `pricing.PAYOFFS` table.

    The strike is read as a Fraction; kinds without a strike ignore it.  A
    leaf with a finite or zero rate takes the dollar leg, an exploded leaf
    the euro value at explosion.
    """
    row, k = payoff_row(kind, strike, Fraction)
    payoffs = {}
    for leaf in tree.leaves():
        if leaf.x.is_infinite:
            euro = row.euro_at_explosion(k)
            payoffs[leaf.id] = EV.infinite() if euro == math.inf else EV.of(euro)
        else:
            payoffs[leaf.id] = EV.of(row.dollar(leaf.x.fraction, k))
    return TreeClaim(payoffs, kind if k is None else f"{kind}_{k}")


def tree_euro_forward(tree: DualTree) -> TreeClaim:
    """(X_T, 1): one euro at maturity, under every outcome."""
    return tree_claim(tree, "euro_forward")


def claim_combine(tree: DualTree, c1: TreeClaim, c2: TreeClaim,
                  a=1) -> TreeClaim:
    """c1 + a * c2 with a >= 0 rational, leaf by leaf."""
    a = Fraction(a)
    if a < 0:
        raise ClaimError("claims combine with nonnegative weights only")
    payoffs = {leaf.id: c1.payoffs[leaf.id] + c2.payoffs[leaf.id].scale(a)
               for leaf in tree.leaves()}
    return TreeClaim(payoffs, f"({c1.kind})+{a}*({c2.kind})")


# ---------------------------------------------------------------------------
# pricing by the two-measure expectation formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDualPrice:
    """Exact price decomposition; total_euro always equals total_dollar/x0 and
    coincides with the independently computed euro-side decomposition."""

    classical: Fraction
    correction: Fraction
    total_dollar: Fraction
    total_euro: Fraction
    euro_classical: Fraction
    euro_correction: Fraction


def price_on_tree(tree: DualTree, claim: TreeClaim) -> TreeDualPrice:
    validate_claim(tree, claim)
    classical = Fraction(0)
    correction = Fraction(0)
    euro_classical = Fraction(0)
    euro_correction = Fraction(0)
    for leaf in tree.leaves():
        pd, pe = tree.prob_dollar[leaf.id], tree.prob_euro[leaf.id]
        v = claim.payoffs[leaf.id]
        # the dollar measure sees finite and zero rates, where v is in dollars
        if pd > 0:
            if v.is_infinite:
                raise InfinitePrice(
                    f"dollar payoff infinite on supported leaf {leaf.id!r}")
            classical += pd * v.fraction
            if leaf.x.is_zero:
                euro_correction += pd * v.fraction / tree.x0
        if pe > 0:
            e = _in_euros(v, leaf.x)
            if e.is_infinite:
                raise InfinitePrice(
                    f"euro payoff infinite on supported leaf {leaf.id!r}")
            euro_classical += pe * e.fraction
            if leaf.x.is_infinite:
                correction += tree.x0 * pe * e.fraction
    total = classical + correction
    result = TreeDualPrice(classical, correction, total, total / tree.x0,
                           euro_classical, euro_correction)
    assert result.total_euro == euro_classical + euro_correction, \
        "euro-side decomposition disagrees; tree invariants must be broken"
    return result


# ---------------------------------------------------------------------------
# superreplication by backward induction
# ---------------------------------------------------------------------------

@dataclass
class TreeStrategy:
    """Holdings (money-market units, euro units) per interior finite node and
    the wealth they generate at every supported node, in the unit of the
    measure that sees the node: euros where X = inf, dollars elsewhere (the
    unit of `TreeClaim.payoffs`)."""

    price: Fraction
    holdings: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)
    wealth: dict[str, Fraction] = field(default_factory=dict)


def _solve_hull_lp(points: list[tuple[Fraction, Fraction]],
                   floors: list[Fraction],
                   x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The cheapest line y -> e0 + e1*y on or above every point (y, r) whose
    slope e1 is at least every floor; returns (e0, e1, e0 + e1*x).

    This is the one-period superhedging program at a node with state x: a
    point is a finite or devalued child (state, required dollars), a floor
    the required euros at an exploded child.  By the one-period duality its
    cost is the upper concave envelope of the points at x (Foellmer & Schied,
    *Stochastic Finance*).  The upper hull is built by monotone chain with
    exact cross products, and the optimal slopes [lo, hi] of the envelope at
    x are clamped from below by the largest floor s.  If s > hi, the slope is
    s and the line passes through the point maximizing r - s*y.

    Ties: a range of optimal slopes exists only when a point sits at y = x.
    Among the lines through (x, cost) whose slope is lo, hi, 0 or cost/x and
    lies in the range (the vertices of the program's optimal face), the one
    binding the most constraints wins, counting repeated points and floors
    each time, and then the one with the smallest e0.  This is the rule of
    minimal (cost, slack constraints, e0, e1) over the program's vertices; it
    makes the strategy replicate, not merely dominate, whenever it can.

    Boundedness: the program is bounded iff some point lies at or below x and
    some point lies at or above x or a floor exists; otherwise it raises
    InfeasibleError.  On a valid tree the euro-measure normalization and the
    density relation put the dollar mean of the supported children at
    x * (1 - explosion mass) <= x, so a point lies at or below x, and with no
    explosion mass the mean is x, so a point lies at or above x.
    """
    top: dict[Fraction, Fraction] = {}
    for y, r in points:
        if y not in top or r > top[y]:
            top[y] = r
    hull: list[tuple[Fraction, Fraction]] = []
    for y in sorted(top):
        r = top[y]
        # keep the last hull point only if it lies strictly above the chord
        # from the point before it to (y, r)
        while len(hull) >= 2:
            (y1, r1), (y2, r2) = hull[-2], hull[-1]
            if (r2 - r1) * (y - y1) > (r - r1) * (y2 - y1):
                break
            hull.pop()
        hull.append((y, r))
    s = max(floors) if floors else None
    k = next((i for i, (y, _) in enumerate(hull) if y >= x), None)
    if not hull or hull[0][0] > x or (k is None and s is None):
        raise InfeasibleError(
            f"unbounded hedging program at x = {x}: no supported branch at "
            "or below x, or none at or above x and none exploded")
    # optimal slopes of the envelope at x; None stands for -inf (lo), +inf (hi)
    lo = hi = None
    if k is not None:
        yk, rk = hull[k]
        if yk == x:
            v = rk
            if k > 0:
                hi = (rk - hull[k - 1][1]) / (yk - hull[k - 1][0])
            if k + 1 < len(hull):
                lo = (hull[k + 1][1] - rk) / (hull[k + 1][0] - yk)
        else:
            yj, rj = hull[k - 1]
            lo = hi = (rk - rj) / (yk - yj)
            v = rj + lo * (x - yj)
    if s is not None and (k is None or (hi is not None and s > hi)):
        e0 = max(r - s * y for y, r in top.items())
        return e0, s, e0 + s * x
    if s is not None and (lo is None or s > lo):
        lo = s
    if lo is not None and lo == hi:
        t = lo
    else:
        def tight(t: Fraction) -> int:
            return (sum(1 for y, r in points if v + t * (y - x) == r)
                    + floors.count(t))
        t = max((t for t in (lo, hi, Fraction(0), v / x) if t is not None
                 and (lo is None or t >= lo) and (hi is None or t <= hi)),
                key=lambda t: (tight(t), t))
    return v - t * x, t, v


def _supported(tree: DualTree, nid: str) -> bool:
    return tree.prob_dollar[nid] > 0 or tree.prob_euro[nid] > 0


def superreplicate_backward(tree: DualTree, claim: TreeClaim
                            ) -> tuple[Fraction, TreeStrategy]:
    """Minimal-cost portfolio process dominating the claim under both measures.

    Covers every node with positive mass under either measure, and requires
    a finite claim on the supported leaves.  Returns the initial cost in
    dollars and the strategy; wealth entries are recorded at supported nodes.
    The requirement at a node is kept in the unit of the measure that sees it,
    as the claim's payoffs are, so an absorbed node inherits its child's.
    """
    validate_claim(tree, claim)
    required: dict[str, Fraction] = {}
    holdings: dict[str, tuple[Fraction, Fraction]] = {}

    for node in reversed(tree.nodes.values()):
        if not _supported(tree, node.id):
            continue
        if node.is_terminal:
            v = claim.payoffs[node.id]
            if v.is_infinite:
                raise InfinitePrice(f"infinite payoff at {node.id!r}")
            required[node.id] = v.fraction
            continue
        if not node.x.is_finite:
            required[node.id] = required[node.branches[0].child]
            continue
        points = []
        floors = []
        for b in node.branches:
            if not _supported(tree, b.child):
                continue
            cx = tree.nodes[b.child].x
            if cx.is_infinite:
                floors.append(required[b.child])
            else:
                points.append((cx.fraction, required[b.child]))
        e0, e1, cost = _solve_hull_lp(points, floors, node.x.fraction)
        holdings[node.id] = (e0, e1)
        required[node.id] = cost

    price = required[tree.root]
    strategy = TreeStrategy(price, holdings)
    _fill_wealth(tree, strategy)
    return price, strategy


def _fill_wealth(tree: DualTree, strategy: TreeStrategy) -> None:
    """Wealth e0 + e1*x at each supported node from the holdings in force at
    its parent: e1 euros at an explosion, e0 dollars at a devaluation."""
    if strategy.price < 0:
        raise InfeasibleError("negative superreplication price for a claim >= 0")
    strategy.wealth[tree.root] = strategy.price
    # holdings in force at each reached node: its own, else its parent's
    held = {tree.root: strategy.holdings.get(tree.root)}
    for node in tree.nodes.values():
        if node.parent not in held or not _supported(tree, node.id):
            continue
        e0, e1 = held[node.parent]
        w = e1 if node.x.is_infinite else e0 + e1 * node.x.fraction
        if w < 0:
            raise InfeasibleError(
                f"negative wealth at supported node {node.id!r}")
        strategy.wealth[node.id] = w
        held[node.id] = strategy.holdings.get(node.id, (e0, e1))


def verify_strategy(tree: DualTree, claim: TreeClaim, strategy: TreeStrategy,
                    require_equality: bool = False) -> None:
    """Assert the wealth process superreplicates the claim on supported leaves
    and stays nonnegative, both in the unit of the measure that sees each
    node; at a finite rate x > 0 that one comparison holds in both units."""
    for leaf in tree.leaves():
        if not _supported(tree, leaf.id):
            continue
        w, v = strategy.wealth[leaf.id], claim.payoffs[leaf.id]
        if v.is_infinite or w < v.fraction:
            raise AssertionError(f"wealth {w} < payoff {v} at {leaf.id!r}")
        if require_equality and w != v.fraction:
            raise AssertionError(f"wealth {w} != payoff {v} at {leaf.id!r}")
    for nid, w in strategy.wealth.items():
        if w < 0:
            raise AssertionError(f"negative wealth at {nid!r}")


# ---------------------------------------------------------------------------
# parity and equivalence report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityRow:
    strike: Fraction
    call_price: Fraction
    put_price: Fraction
    parity_residual: Fraction          # p(C) + K - p(P) - x0, contract: 0
    intl_call_residual: Fraction       # p$(C$_K) - x0 K pe(Pe_{1/K}), contract: 0
    intl_put_residual: Fraction        # p$(P$_K) - x0 K pe(Ce_{1/K}), contract: 0
    classical_violation: Fraction      # E[(X-K)^+] + K - E[(K-X)^+] - x0
    explosion_mass: Fraction           # x0 * Qe(X_T = inf); violation == -this


def parity_and_equivalence_report(tree: DualTree,
                                  strikes) -> list[ParityRow]:
    mass = tree.x0 * sum((tree.prob_euro[leaf.id] for leaf in tree.leaves()
                          if leaf.x.is_infinite), Fraction(0))
    rows = []
    for strike in strikes:
        k = Fraction(strike)
        if k <= 0:
            raise ClaimError("strikes must be positive")
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
            explosion_mass=mass,
        ))
    return rows
