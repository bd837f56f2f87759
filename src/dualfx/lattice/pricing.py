"""Exact two-measure pricing and superreplication on dual trees.

The price of a claim pair (D$, De) is the classical dollar expectation plus a
correction carrying the explosion mass that only the euro measure sees:

    p$ = E_Q$[D$] + x0 * E_Qe[De 1{X_T = inf}]
    pe = E_Qe[De] + (1/x0) * E_Q$[D$ 1{X_T = 0}] = p$ / x0.

`superreplicate_backward` re-derives the same number by dynamic programming:
at every node a two-asset portfolio (money market, euros) is chosen, by exact
vertex enumeration of the two-variable linear program, so that next-period
wealth dominates the required wealth under both measures.  On trees whose
nodes carry at most two supported branches (the complete-market case the
pricing theorem assumes) the program is tight and the two routes agree
exactly; with three or more supported branches the hedging cost is strictly
larger, which `test_lattice_pricing` pins down with a counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

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
    """Payoff pair per terminal node; euro leg equals dollar leg over the rate
    wherever the rate is finite."""

    payoffs: Mapping[str, tuple[ExtendedValue, ExtendedValue]]
    kind: str = "custom"


def validate_claim(tree: DualTree, claim: TreeClaim) -> None:
    for leaf in tree.leaves():
        if leaf.id not in claim.payoffs:
            raise ClaimError(f"claim not defined at leaf {leaf.id!r}")
        d, e = claim.payoffs[leaf.id]
        if leaf.x.is_finite and e != d * leaf.x.reciprocal():
            raise ClaimError(
                f"euro leg at {leaf.id!r} is {e}, expected {d}/{leaf.x}")


def _extended(v) -> ExtendedValue:
    return EV.infinite() if v == math.inf else EV.of(v)


def tree_claim(tree: DualTree, kind: str, strike=None) -> TreeClaim:
    """Exact leaf payoffs of a claim kind from the `pricing.PAYOFFS` table.

    The strike is read as a Fraction; kinds without a strike ignore it.  The
    dollar value at an explosion leaf is inf times the euro value there
    (inf * 0 = 0), which no measure seeing that leaf ever reads.
    """
    row, k = payoff_row(kind, strike, Fraction)
    payoffs = {}
    for leaf in tree.leaves():
        x = leaf.x
        if x.is_finite:
            payoffs[leaf.id] = (EV.of(row.dollar(x.value, k)),
                                EV.of(row.euro(x.value, k)))
        elif x.is_infinite:
            euro = _extended(row.euro_at_explosion(k))
            payoffs[leaf.id] = (EV.infinite() * euro, euro)
        else:
            payoffs[leaf.id] = (EV.of(row.dollar(Fraction(0), k)),
                                _extended(row.euro_at_devaluation(k)))
    claim = TreeClaim(payoffs, kind if k is None else f"{kind}_{k}")
    validate_claim(tree, claim)
    return claim


def tree_euro_forward(tree: DualTree) -> TreeClaim:
    """(X_T, 1): one euro at maturity, under every outcome."""
    return tree_claim(tree, "euro_forward")


def claim_combine(tree: DualTree, c1: TreeClaim, c2: TreeClaim,
                  a=1) -> TreeClaim:
    """c1 + a * c2 with a >= 0 rational, leaf by leaf."""
    a = Fraction(a)
    if a < 0:
        raise ClaimError("claims combine with nonnegative weights only")
    payoffs = {}
    for leaf in tree.leaves():
        d1, e1 = c1.payoffs[leaf.id]
        d2, e2 = c2.payoffs[leaf.id]
        payoffs[leaf.id] = (d1 + d2.scale(a), e1 + e2.scale(a))
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
        d, e = claim.payoffs[leaf.id]
        if pd > 0:
            if d.is_infinite:
                raise InfinitePrice(
                    f"dollar payoff infinite on supported leaf {leaf.id!r}")
            classical += pd * d.fraction
            if leaf.x.is_zero:
                euro_correction += pd * d.fraction / tree.x0
        if pe > 0:
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
    the wealth they generate, in both units, at every supported node."""

    price: Fraction
    holdings: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)
    wealth_dollar: dict[str, ExtendedValue] = field(default_factory=dict)
    wealth_euro: dict[str, ExtendedValue] = field(default_factory=dict)


def _solve_corner_lp(constraints: list[tuple[Fraction, Fraction, Fraction]],
                     x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Minimize e0 + e1*x subject to a*e0 + b*e1 >= c, by vertex enumeration.

    Two variables, so every optimum sits on a pairwise intersection or on an
    axis intercept of a single constraint; the martingale structure of valid
    trees guarantees boundedness.
    """
    if not constraints:
        raise InfeasibleError("node without supported branches")
    candidates: list[tuple[Fraction, Fraction]] = []
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
    best: tuple[Fraction, Fraction, Fraction] | None = None
    best_key = None
    for e0, e1 in candidates:
        if all(a * e0 + b * e1 >= c for a, b, c in constraints):
            cost = e0 + e1 * x
            # among cost ties prefer vertices binding every constraint, so the
            # strategy replicates (not merely dominates) whenever it can
            slack = sum(1 for a, b, c in constraints if a * e0 + b * e1 != c)
            key = (cost, slack, e0, e1)
            if best_key is None or key < best_key:
                best, best_key = (e0, e1, cost), key
    if best is None:
        raise InfeasibleError("no feasible vertex; claim not nonnegative?")
    return best


def superreplicate_backward(tree: DualTree, claim: TreeClaim,
                            supported: Callable[[str], bool] | None = None,
                            ) -> tuple[Fraction, TreeStrategy]:
    """Minimal-cost portfolio process dominating the claim under both measures.

    `supported` restricts which nodes must be covered (default: every node
    with positive mass under either measure).  Requires a finite claim on the
    supported leaves.  Returns the initial cost in dollars and the strategy;
    wealth entries are recorded at supported nodes.
    """
    validate_claim(tree, claim)
    if supported is None:
        def supported(nid: str) -> bool:
            return tree.prob_dollar[nid] > 0 or tree.prob_euro[nid] > 0

    req_dollar: dict[str, Fraction] = {}
    req_euro: dict[str, Fraction] = {}
    holdings: dict[str, tuple[Fraction, Fraction]] = {}

    for node in reversed(tree.nodes.values()):
        if not supported(node.id):
            continue
        if node.is_terminal:
            d, e = claim.payoffs[node.id]
            if node.x.is_infinite:
                if e.is_infinite:
                    raise InfinitePrice(f"infinite euro payoff at {node.id!r}")
                req_euro[node.id] = e.fraction
            else:
                if d.is_infinite:
                    raise InfinitePrice(f"infinite dollar payoff at {node.id!r}")
                req_dollar[node.id] = d.fraction
            continue
        if node.x.is_infinite:
            req_euro[node.id] = req_euro[node.branches[0].child]
            continue
        if node.x.is_zero:
            req_dollar[node.id] = req_dollar[node.branches[0].child]
            continue
        constraints = []
        for b in node.branches:
            if not supported(b.child):
                continue
            cx = tree.nodes[b.child].x
            if cx.is_finite:
                constraints.append((Fraction(1), cx.fraction, req_dollar[b.child]))
            elif cx.is_infinite:
                constraints.append((Fraction(0), Fraction(1), req_euro[b.child]))
            else:
                constraints.append((Fraction(1), Fraction(0), req_dollar[b.child]))
        e0, e1, cost = _solve_corner_lp(constraints, node.x.fraction)
        holdings[node.id] = (e0, e1)
        req_dollar[node.id] = cost

    price = req_dollar[tree.root]
    strategy = TreeStrategy(price, holdings)
    _fill_wealth(tree, strategy, supported)
    return price, strategy


def _fill_wealth(tree: DualTree, strategy: TreeStrategy,
                 supported: Callable[[str], bool]) -> None:
    if strategy.price < 0:
        raise InfeasibleError("negative superreplication price for a claim >= 0")
    strategy.wealth_dollar[tree.root] = EV.of(strategy.price)
    strategy.wealth_euro[tree.root] = EV.of(strategy.price / tree.x0)
    # holdings in force at each reached node: its own, else its parent's
    held = {tree.root: strategy.holdings.get(tree.root)}
    for node in tree.nodes.values():
        if node.parent not in held or not supported(node.id):
            continue
        e0, e1 = held[node.parent]
        if node.x.is_finite:
            w = e0 + e1 * node.x.fraction
            if w < 0:
                raise InfeasibleError(
                    f"negative wealth at supported node {node.id!r}")
            strategy.wealth_dollar[node.id] = EV.of(w)
            strategy.wealth_euro[node.id] = EV.of(w / node.x.fraction)
        elif node.x.is_infinite:
            if e1 < 0:
                raise InfeasibleError(
                    f"negative euro wealth at supported node {node.id!r}")
            strategy.wealth_euro[node.id] = EV.of(e1)
            strategy.wealth_dollar[node.id] = (
                EV.infinite() if e1 > 0 else EV.of(max(e0, Fraction(0))))
        else:
            if e0 < 0:
                raise InfeasibleError(
                    f"negative dollar wealth at supported node {node.id!r}")
            strategy.wealth_dollar[node.id] = EV.of(e0)
            strategy.wealth_euro[node.id] = (
                EV.infinite() if e0 > 0 else EV.of(max(e1, Fraction(0))))
        held[node.id] = strategy.holdings.get(node.id, (e0, e1))


def verify_strategy(tree: DualTree, claim: TreeClaim, strategy: TreeStrategy,
                    require_equality: bool = False) -> None:
    """Assert the wealth process superreplicates the claim on supported leaves
    and stays nonnegative under the measure that sees each node."""
    for leaf in tree.leaves():
        pd, pe = tree.prob_dollar[leaf.id], tree.prob_euro[leaf.id]
        d, e = claim.payoffs[leaf.id]
        if pd > 0:
            w = strategy.wealth_dollar[leaf.id]
            if not w >= d:
                raise AssertionError(f"dollar wealth {w} < payoff {d} at {leaf.id!r}")
            if require_equality and w != d:
                raise AssertionError(f"dollar wealth {w} != payoff {d} at {leaf.id!r}")
        if pe > 0:
            w = strategy.wealth_euro[leaf.id]
            if not w >= e:
                raise AssertionError(f"euro wealth {w} < payoff {e} at {leaf.id!r}")
            if require_equality and w != e:
                raise AssertionError(f"euro wealth {w} != payoff {e} at {leaf.id!r}")
    for nid, w in strategy.wealth_dollar.items():
        if tree.prob_dollar[nid] > 0 and w < EV.zero():
            raise AssertionError(f"negative dollar wealth at {nid!r}")
    for nid, w in strategy.wealth_euro.items():
        if tree.prob_euro[nid] > 0 and w < EV.zero():
            raise AssertionError(f"negative euro wealth at {nid!r}")


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
