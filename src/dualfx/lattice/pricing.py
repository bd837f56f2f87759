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
required euros as floors on the euro holding.  On trees whose nodes carry at
most two supported branches (the complete-market case the pricing theorem
assumes) the program is tight and the two routes agree exactly; with three
or more supported branches the hedging cost can be strictly larger, which
`test_lattice_pricing` pins down with a counterexample.

Both routes work in ints and form one Fraction per value returned: a claim's
payoff table is summed in one pass over the leaves, the parity report's from
the terminal law's running sums split at each strike, strikes scale by
integer products, and the hedge solves each node on (numerator, denominator)
pairs from the two hull chords next to its state.  A strategy's holdings form
from its integer lines on read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from ..errors import ClaimError, ConfigError, InfeasibleError, InfinitePrice
from ..inputs import PAYOFFS, Payoff, payoff_row
from .checks import _check_value
from .tree import DualTree, TerminalLaw, _ratio, _rational, terminal_law


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeClaim:
    """One payoff per terminal node, in the currency of the measure that sees
    the node: dollars where the rate is finite or zero, euros where it is
    infinite.  A leaf pays `payoffs[nid] / denominator`, from an int or
    Fraction >= 0, or None where it is infinite; its euro payoff at a finite
    or zero rate x is that times 1/x (inf * 0 = 0), worked out where read."""

    payoffs: Mapping[str, int | Fraction | None]
    kind: str = "custom"
    denominator: int = 1


def validate_claim(tree: DualTree, claim: TreeClaim) -> None:
    """Raise ClaimError unless the claim's denominator is an int >= 1 and it
    has a payoff at every leaf, each None (infinite) or a non-bool int or
    Fraction >= 0 (`_check_value`).  The pricers call this once per pricing
    call, where a claim meets a tree.
    """
    if type(claim.denominator) is not int or claim.denominator < 1:
        raise ClaimError(f"claim denominator {claim.denominator!r} is not "
                         "an int >= 1")
    payoffs = claim.payoffs
    for nid in tree.leaves:
        if nid not in payoffs:
            raise ClaimError(f"claim not defined at leaf {nid!r}")
        if payoffs[nid] is not None:
            _check_value(payoffs[nid], "payoff", "leaf", nid)


def tree_claim(tree: DualTree, kind: str, strike=None) -> TreeClaim:
    """The `TreeClaim` of an `inputs.PAYOFFS` kind at a strike k = p/q read
    by `tree._rational`, from the terminal law alone: per leaf the dollar leg
    at a rate n/Dx, or the euro value at an explosion, as ints over (Dx*q)**2
    (None if infinite).  The scaled strike k*Dx*q is the integer product
    p*Dx, and the euro value e at an explosion (an int, or k itself) scales
    by integer products too."""
    row, k = payoff_row(kind, strike, _rational)
    q = 1 if k is None else k.denominator
    d_x = tree.denominators[2]
    u, dollar, ku = d_x * q, row.dollar, k and k.numerator * d_x
    euro = row.euro_at_explosion(k)
    euro = (None if euro == math.inf
            else euro.numerator * (u // euro.denominator) * u)
    return TreeClaim({nid: euro if (x := tree.numerators[nid][2]) is None
                      else dollar(x * q, ku, u) for nid in tree.leaves},
                     kind if k is None else f"{kind}_{k}", u * u)


def tree_euro_forward(tree: DualTree) -> TreeClaim:
    """(X_T, 1): one euro at maturity, under every outcome."""
    return tree_claim(tree, "euro_forward")


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


def _formula_sums(tree: DualTree, values: list) -> tuple[int, int, int, int]:
    """The formula's leaf pass: leaf values in `tree.leaves` order, ints >= 0
    or None, zero values skipped, summed against the leaves' masses into the
    classical, devalued, euro-finite and exploded sums of `_formula_parts`."""
    classical = devalued = euro_finite = exploded = 0
    for nid, v in zip(tree.leaves, values):
        pd, pe, x, inv = tree.numerators[nid]
        if not v:
            # pd > 0 only at finite and zero rates, pe > 0 only at finite
            # and infinite ones: the dollar error wins where both see v
            if v is None and (pd or pe):
                raise InfinitePrice(f"{'dollar' if pd else 'euro'} payoff "
                                    f"infinite on supported leaf {nid!r}")
        elif x is None:
            exploded += pe * v
        else:
            classical += pd * v
            if x:
                euro_finite += pe * v * inv
            else:
                devalued += pd * v
    return classical, devalued, euro_finite, exploded


def _formula_parts(law: DualTree | TerminalLaw, sums, d_v: int) -> tuple:
    """The six parts of `TreeDualPrice` as (numerator, denominator) pairs,
    from a table's four formula sums over d_v and a tree's or a law's x0
    and denominators; the euro-side decomposition must agree."""
    classical, devalued, euro_finite, exploded = sums
    d_pd, d_pe, _, d_inv = law.denominators
    x0n, x0d = law.x0.as_integer_ratio()
    total = classical * x0d * d_pe + exploded * x0n * d_pd
    euro_classical = euro_finite + exploded * d_inv
    assert total * d_inv == (euro_classical * d_pd * x0n
                             + devalued * x0d * d_pe * d_inv), \
        "euro-side decomposition disagrees; tree invariants must be broken"
    return ((classical, d_pd * d_v), (exploded * x0n, d_pe * d_v * x0d),
            (total, d_pd * d_pe * d_v * x0d), (total, d_pd * d_pe * d_v * x0n),
            (euro_classical, d_pe * d_v * d_inv),
            (devalued * x0d, d_pd * d_v * x0n))


def _law_parts(law: TerminalLaw, row: Payoff, k: Fraction, sides) -> tuple:
    """`_formula_parts` of a kind's `tree_claim` at k, from the sums (Q$,
    Q$ x, Qe, Qe / x) of the law's states on each side of the kind's kink.
    On a side the dollar leg is linear in x and of degree 2, so its sum under
    weights w is `row.dollar` at the w-mean state times w's total: w = Q$ for
    the classical sum, Qe / x for the euro-finite one (x * 1/x = Dx D1/x)."""
    d_x, d_inv = law.denominators[2:]
    q, u, ku = k.denominator, d_x * k.denominator, k.numerator * d_x
    e, dev = law.exploded and row.euro_at_explosion(k), law.rows[0][1]
    sums = [0, dev and dev * row.dollar(0, ku, u), 0,
            e and law.exploded * e.numerator * (u // e.denominator) * u]
    for m, mx, me, mi in sides:
        sums[0] += m and row.dollar(mx * q, ku * m, u * m) // m
        sums[2] += mi and row.dollar(me * d_x * d_inv * q, ku * mi,
                                     u * mi) // mi
    return _formula_parts(law, sums, u * u)


def price_on_tree(tree: DualTree, claim: TreeClaim) -> TreeDualPrice:
    """The exact two-measure price of a claim, validated once, put over its
    payoffs' common denominator Dv and summed over the leaves in integers by
    `_formula_sums`, one Fraction per part."""
    validate_claim(tree, claim)
    values = [claim.payoffs[nid] for nid in tree.leaves]
    d_v = math.lcm(*[v.denominator for v in values if v])
    values = [v and v.numerator * (d_v // v.denominator) for v in values]
    parts = _formula_parts(tree, _formula_sums(tree, values),
                           d_v * claim.denominator)
    return TreeDualPrice(*(_ratio(*part) for part in parts))


# ---------------------------------------------------------------------------
# superreplication by backward induction
# ---------------------------------------------------------------------------

@dataclass
class TreeStrategy:
    """Holdings (money-market units, euro units) per interior finite node and
    the wealth they generate at every supported node, in the unit of the
    measure that sees the node: euros where X = inf, dollars elsewhere (the
    unit of `TreeClaim.payoffs`).  `holdings` is formed on first read from
    the integer lines of the hedging program, as `DualTree.prob_dollar` is
    from the tree's numerators; `wealth` is formed with the strategy."""

    price: Fraction
    wealth: dict[str, Fraction] = field(default_factory=dict)
    # per interior node the line (m, p, d0, d1): e0 = m/d0 and e1 = p/d1
    _lines: dict[str, tuple[int, int, int, int]] = field(
        default_factory=dict, repr=False)

    @cached_property
    def holdings(self) -> dict[str, tuple[Fraction, Fraction]]:
        """(e0, e1) per interior finite node, one Fraction pair each."""
        return {nid: (_ratio(m, d0), _ratio(p, d1))
                for nid, (m, p, d0, d1) in self._lines.items()}


def _cheapest_line(pts: list[tuple[int, int]], fl: list[int], p: int,
                   q: int) -> tuple[int, int]:
    """e0*q of the cheapest line of slope p/q on or above the points (y, r),
    and the constraints it binds: the points on it, and the floors equal to
    p/q, each counted as often as it is repeated.  One pass over the points."""
    m, n = None, 0
    for y, r in pts:
        e = r * q - p * y
        if m is None or e > m:
            m, n = e, 1
        elif e == m:
            n += 1
    for f in fl:
        n += f * q == p
    return m, n


def _solve_hull_lp(points: list[tuple[int, tuple[int, int]]],
                   floors: list[tuple[int, int]], x: int,
                   d_x: int) -> tuple[int, int, int, int, int]:
    """The cheapest line y -> e0 + e1*y on or above every point (y, r) whose
    slope e1 is at least every floor, in ints: the states x and y are
    numerators over d_x, as in a tree, each requirement r and floor a pair
    (numerator, denominator > 0).  Returns (m, p, d0, d1, c), unreduced:
    e0 = m/d0, e1 = p/d1 and the cost e0 + e1*x = c/d0, with d0 = d1*d_x.

    This is the one-period superhedging program at a node with state x: a
    point is a finite or devalued child (state, required dollars), a floor
    the required euros at an exploded child.  By the one-period duality its
    cost is the upper concave envelope of the points at x (Foellmer & Schied,
    *Stochastic Finance*).  One monotone-chain walk over the sorted points
    builds the upper hull in integer cross products, keeping each state's
    highest requirement; the optimal slopes [lo, hi] at x are the two hull
    chords next to x, as integer pairs, and lo is raised to the largest floor.

    Ties: the slope is lo if lo >= hi, else the finite end binding more
    constraints (repeats counted), and hi, with the smaller e0, on a tie,
    each end's line formed once.  A slope strictly inside binds only the
    points at x, so this is the rule of minimal (cost, slack constraints, e0,
    e1) over the program's vertices; it makes the strategy replicate, not
    merely dominate, whenever it can.  With neither end finite every child
    sits at x and the slope is cost/x.

    Boundedness: the program is bounded iff some point lies at or below x and
    some point lies at or above x or a floor exists; otherwise it raises
    InfeasibleError.  On a valid tree the euro-measure normalization and the
    density relation put the dollar mean of the supported children at
    x * (1 - explosion mass) <= x, so a point lies at or below x, and with no
    explosion mass the mean is x, so a point lies at or above x.
    """
    # states over d_x, requirements over d_r d_x and floors over d_r: a
    # slope t read in these units is the slope t / d_r
    d_r = math.lcm(*[d for _, (_, d) in points], *[d for _, d in floors])
    fl, u = [n * (d_r // d) for n, d in floors], d_r * d_x
    pts = sorted([(y, n * (u // d)) for y, (n, d) in points])
    hull: list[tuple[int, int]] = []
    for y, r in pts:
        if hull and hull[-1][0] == y:   # sorted: the last r at y is highest
            hull.pop()
        # keep the last hull point only if it lies strictly above the chord
        # from the point before it to (y, r)
        while len(hull) >= 2:
            (y1, r1), (y2, r2) = hull[-2], hull[-1]
            if (r2 - r1) * (y - y1) > (r - r1) * (y2 - y1):
                break
            hull.pop()
        hull.append((y, r))
    s = max(fl) if fl else None
    k = bisect_left(hull, (x,))     # the first hull point at or above x
    if not hull or hull[0][0] > x or (k == len(hull) and s is None):
        raise InfeasibleError(
            f"unbounded hedging program at x = {Fraction(x, d_x)}: no "
            "supported branch at or below x, or none at or above x and none "
            "exploded")
    # slopes as pairs (p, q), q > 0, for p/q; lo None is -inf, hi None +inf.
    # hi is the chord into hull[k], lo the chord out of x: one chord when x
    # lies inside it
    if k == len(hull):  # every state below x: only the floors bound the slope
        lo = hi = (s, 1)
    else:
        j = k + (hull[k][0] == x)
        hi = ((hull[k][1] - hull[k - 1][1], hull[k][0] - hull[k - 1][0])
              if k else None)
        lo = ((hull[j][1] - hull[j - 1][1], hull[j][0] - hull[j - 1][0])
              if j < len(hull) else None)
    if s is not None and (lo is None or s * lo[1] > lo[0]):
        lo = (s, 1)
    t = lo or hi or (hull[k][1], x)     # the finite end, or with none cost/x
    m, n = _cheapest_line(pts, fl, *t)
    if lo and hi and lo[0] * hi[1] < hi[0] * lo[1]:   # lo < hi: see Ties
        m_hi, n_hi = _cheapest_line(pts, fl, *hi)
        if n_hi >= n:
            t, m = hi, m_hi
    p, q = t
    return m, p, q * u, q * d_r, m + p * x


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
    # reduced (n, d) requirements; lines (m, p, d0, d1): e0 = m/d0, e1 = p/d1
    required: dict[str, tuple[int, int]] = {}
    lines: dict[str, tuple[int, int, int, int]] = {}
    num, d_x, d_v = tree.numerators, tree.denominators[2], claim.denominator
    for node in reversed(tree.nodes.values()):
        if node.id not in tree.supported:
            continue
        if node.is_terminal:
            v = claim.payoffs[node.id]
            if v is None:
                raise InfinitePrice(f"infinite payoff at {node.id!r}")
            n, d = v.numerator, v.denominator * d_v
        elif not (x := num[node.id][2]):
            # absorbed: the child's requirement, in its unit
            required[node.id] = required[node.branches[0].child]
            continue
        else:
            points, floors = [], []
            for b in node.branches:
                if b.child not in tree.supported:
                    continue
                cx = num[b.child][2]
                if cx is None:
                    floors.append(required[b.child])
                else:
                    points.append((cx, required[b.child]))
            m, p, d, d1, n = _solve_hull_lp(points, floors, x, d_x)
            lines[node.id] = (m, p, d, d1)
        g = math.gcd(n, d)
        required[node.id] = (n // g, d // g)

    # wealth e0 + e1*x at each supported node from the holdings in force at
    # its parent, one Fraction each: e1 euros where x = inf, e0 where x = 0
    price = _ratio(*required[tree.root])
    if price.numerator < 0:
        raise InfeasibleError("negative superreplication price for a claim >= 0")
    wealth, held = {tree.root: price}, {tree.root: lines[tree.root]}
    for node in tree.nodes.values():
        if node.parent not in held or node.id not in tree.supported:
            continue
        m, p, d0, d1 = held[node.parent]
        x = num[node.id][2]
        n, d = (p, d1) if x is None else (m + p * x, d0)
        if n < 0:
            raise InfeasibleError(
                f"negative wealth at supported node {node.id!r}")
        wealth[node.id] = _ratio(n, d)
        held[node.id] = lines.get(node.id, held[node.parent])
    return price, TreeStrategy(price, wealth, lines)


def verify_strategy(tree: DualTree, claim: TreeClaim, strategy: TreeStrategy,
                    require_equality: bool = False) -> None:
    """Assert the wealth process superreplicates the claim on supported leaves
    and stays nonnegative, both in the unit of the measure that sees each
    node; at a finite rate x > 0 that one comparison holds in both units."""
    d_v = claim.denominator
    for nid in tree.leaves:
        if nid not in tree.supported:
            continue
        w, v = strategy.wealth[nid], claim.payoffs[nid]
        if v is None:
            raise AssertionError(f"wealth {w} < payoff inf at {nid!r}")
        gap = w.numerator * d_v * v.denominator - v.numerator * w.denominator
        if gap < 0 or require_equality and gap:
            raise AssertionError(f"wealth {w} {'<' if gap < 0 else '!='} "
                                 f"payoff {Fraction(v, d_v)} at {nid!r}")
    for nid, w in strategy.wealth.items():
        if w.numerator < 0:
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


def _one_fraction(plus, minus) -> Fraction:
    """The integer pairs (n, d) of `plus`, as n/d each, minus those of
    `minus`: one Fraction over the least common d."""
    d = math.lcm(*[e for _, e in (*plus, *minus)])
    return _ratio(sum(n * (d // e) for n, e in plus)
                  - sum(n * (d // e) for n, e in minus), d)


def parity_and_equivalence_report(tree: DualTree | TerminalLaw,
                                  strikes) -> list[ParityRow]:
    """One row per strike, each read exactly by `tree._rational` through
    `inputs.payoff_row`, whose ConfigError refuses a strike that is not a
    positive rational (a bool, None, nan, inf); an empty list raises
    ConfigError, since a report of no strike checks nothing.  It reads only
    a terminal law, the tree's or one given: the call and put at k and the
    dollar call and put at 1/k all kink at x = k, so one bisection of the
    law's rows gives all four `_law_parts`; each field is one Fraction."""
    if not strikes:
        raise ConfigError("the lattice parity report needs at least one "
                          "strike")
    ks = [payoff_row("call", strike, _rational)[1] for strike in strikes]
    law = (tree if isinstance(tree, TerminalLaw) else tree.law
           if isinstance(tree, DualTree) else terminal_law(tree))
    x0, d_x, rows = law.x0.as_integer_ratio(), law.denominators[2], []
    for k in ks:
        kn, kd = k.numerator, k.denominator
        # the sums over the states x < k, the last row before x >= k Dx
        _, *low = law.rows[bisect_left(law.rows, (-(-kn * d_x // kd),)) - 1]
        sides = low, [t - b for t, b in zip(law.rows[-1][1:], low)]
        inv = Fraction(kd, kn)
        (cc, ce, c, *_), (pc, _, p, *_), (_, _, dc, *_), (_, _, dp, *_) = (
            _law_parts(law, PAYOFFS[kind], s, sides)
            for kind, s in (("call", k), ("put", k), ("dollar_call", inv),
                            ("dollar_put", inv)))
        # x0 K pe(D) = K p$(D): the euro-side assertion of `_formula_parts`;
        # the call's correction ce is the explosion mass x0 Qe(X_T = inf)
        rows.append(ParityRow(
            strike=k, call_price=_ratio(*c), put_price=_ratio(*p),
            parity_residual=_one_fraction([c, (kn, kd)], [p, x0]),
            intl_call_residual=_one_fraction([c], [(kn * dp[0], kd * dp[1])]),
            intl_put_residual=_one_fraction([p], [(kn * dc[0], kd * dc[1])]),
            classical_violation=_one_fraction([cc, (kn, kd)], [pc, x0]),
            explosion_mass=_ratio(*ce)))
    return rows
