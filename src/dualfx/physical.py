"""Dominating physical measure on a dual tree, with hyperinflation events.

Both complete devaluations are allowed to carry positive mass under the
physical measure P, built as the even mixture of the two risk-neutral
measures.  Conditioning P on "no explosion" / "no devaluation" yields the
investor-specific physical measures; the module verifies, exactly:

  (a) the two conditioned measures share their support on every
      pre-absorption cylinder;
  (b) explosion carries positive P-mass iff the rate's dollar expectation
      sits strictly below the spot (and dually for devaluation); and
  (c) the backward superreplication program restricted to P's support
      reproduces the two-measure price.

P gives a node's cylinder the mass (Q$ + Qe)/2, which is positive exactly
where Q$ or Qe is: P's support is the support superreplication covers by
default, so check (c) runs the program as it is: on the euro forward by
default, priced from the tree's terminal law, or on a nonempty claim list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import ConditioningError, ConfigError
from .lattice.pricing import (TreeClaim, _law_parts, price_on_tree,
                              superreplicate_backward, tree_euro_forward,
                              verify_strategy)
from .lattice.tree import DualTree, _ratio


def _normalized(masses: dict) -> dict[str, Fraction]:
    """Integer masses over their sum, one Fraction each."""
    total = sum(masses.values())
    return {nid: Fraction(m, total) for nid, m in masses.items()}


@dataclass
class PhysicalLattice:
    """P on a tree's leaves, kept as `build_physical`'s integer leaf masses;
    each Fraction map is formed on first read, as `DualTree.prob_dollar` is."""

    tree: DualTree
    _masses: tuple[dict, dict, dict] = field(repr=False)
    # leaf-level P, P( . | no explosion) and P( . | no devaluation)
    p = cached_property(lambda self: _normalized(self._masses[0]))
    p_dollar = cached_property(lambda self: _normalized(self._masses[1]))
    p_euro = cached_property(lambda self: _normalized(self._masses[2]))


def cylinder_masses(tree: DualTree, leaf_mass: dict) -> dict:
    """Mass of every node's cylinder, summed from the leaves (Fractions,
    numerators over one denominator, or counts) in one bottom-up pass."""
    mass = dict(leaf_mass)
    for node in reversed(tree.nodes.values()):
        if node.branches:
            m = 0
            for b in node.branches:
                m += mass[b.child]
            mass[node.id] = m
    return mass


def build_physical(tree: DualTree) -> PhysicalLattice:
    """P = (Q$ + Qe)/2 on paths, as numerators over 2 D$ De per leaf, and
    its restrictions to no explosion and to no devaluation, on which it is
    conditioned exactly; ConditioningError if either has probability zero."""
    d_pd, d_pe = tree.denominators[:2]
    p, dollar, euro = {}, {}, {}
    for nid in tree.leaves:
        pd, pe, x, _ = tree.numerators[nid]
        p[nid] = m = pd * d_pe + pe * d_pd
        dollar[nid] = 0 if x is None else m
        euro[nid] = 0 if x == 0 else m
    for event, masses in (("no-explosion", dollar), ("no-devaluation", euro)):
        if not any(masses.values()):
            raise ConditioningError(f"{event} event has probability zero")
    return PhysicalLattice(tree, (p, dollar, euro))


@dataclass(frozen=True)
class PhysicalReport:
    p_explosion: Fraction
    p_devaluation: Fraction
    defect_dollar: Fraction       # x0 - E_Q$[X_T]
    defect_euro: Fraction         # 1/x0 - E_Qe[1/X_T]
    interpretation_holds: bool
    support_checks_passed: bool
    replication_price_matches: bool


def consistency_checks(pl: PhysicalLattice,
                       claims: list[TreeClaim] | None = None) -> PhysicalReport:
    """Run checks (a)-(c), exactly, over the integer numerators of P, (a) in
    one walk.  (c) compares the superreplication price on P's support with
    the formula price of each claim, by default the euro forward priced from
    the terminal law; both agree on complete trees by the pricing theorem.
    An empty claim list checks nothing and raises ConfigError."""
    if claims is not None and not claims:
        raise ConfigError("the physical checks need at least one claim")
    tree, law = pl.tree, pl.tree.law
    p, dollar, euro = pl._masses
    total, d_total = sum(p.values()), sum(dollar.values())     # 2 D$ De
    explosion, devaluation = total - d_total, total - sum(euro.values())
    # one walk, both supports: count (dollar > 0) + b (euro > 0), b > #leaves
    b = len(dollar) + 1
    mass = cylinder_masses(tree, {nid: (d > 0) + b * (euro[nid] > 0)
                                  for nid, d in dollar.items()})
    support_ok = all((m % b > 0) == (m >= b) for nid, m in mass.items()
                     if tree.numerators[nid][2])

    # E_Q$[X_T] over D$ Dx and E_Qe[1/X_T] over De D1/x: the law's totals
    _, _, e_x, _, e_inv = law.rows[-1]
    d_pd, d_pe, d_x, d_inv = tree.denominators
    x0n, x0d = tree.x0.numerator, tree.x0.denominator
    defect_dollar = _ratio(x0n * d_pd * d_x - x0d * e_x, x0d * d_pd * d_x)
    defect_euro = _ratio(x0d * d_pe * d_inv - x0n * e_inv,
                         x0n * d_pe * d_inv)
    interpretation = ((explosion > 0) == (defect_dollar.numerator > 0)
                      and (devaluation > 0) == (defect_euro.numerator > 0))

    replication_ok = True
    for claim in claims or [tree_euro_forward(tree)]:
        formula = (price_on_tree(tree, claim).total_dollar if claims else
                   _ratio(*_law_parts(law, "euro_forward", 1,
                                      [law.rows[-1][1:]])[2]))
        cost, strategy = superreplicate_backward(tree, claim)
        verify_strategy(tree, claim, strategy)
        replication_ok &= cost == formula

    return PhysicalReport(_ratio(explosion, total), _ratio(devaluation, total),
                          defect_dollar, defect_euro, interpretation,
                          support_ok, replication_ok)
