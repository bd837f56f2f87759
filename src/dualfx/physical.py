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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConditioningError
from .lattice.pricing import (TreeClaim, price_on_tree, superreplicate_backward,
                              tree_euro_forward, verify_strategy)
from .lattice.tree import DualTree


@dataclass
class PhysicalLattice:
    tree: DualTree
    p: dict[str, Fraction]          # leaf-level physical measure
    p_dollar: dict[str, Fraction]   # P( . | no explosion)
    p_euro: dict[str, Fraction]     # P( . | no devaluation)


def cylinder_masses(tree: DualTree, leaf_mass: dict[str, Fraction]
                    ) -> dict[str, Fraction]:
    """Mass of every node's cylinder, summed from the leaves in one bottom-up
    pass."""
    mass = dict(leaf_mass)
    for node in reversed(tree.nodes.values()):
        if not node.is_terminal:
            mass[node.id] = sum((mass[b.child] for b in node.branches),
                                Fraction(0))
    return mass


def build_physical(tree: DualTree) -> PhysicalLattice:
    """P = (Q$ + Qe)/2 on paths, conditioned exactly on the no-inflation events."""
    p: dict[str, Fraction] = {}
    explosion_mass = Fraction(0)
    devaluation_mass = Fraction(0)
    for leaf in tree.leaves():
        mass = (tree.prob_dollar[leaf.id] + tree.prob_euro[leaf.id]) / 2
        p[leaf.id] = mass
        if leaf.x.is_infinite:
            explosion_mass += mass
        if leaf.x.is_zero:
            devaluation_mass += mass
    if explosion_mass == 1:
        raise ConditioningError("no-explosion event has probability zero")
    if devaluation_mass == 1:
        raise ConditioningError("no-devaluation event has probability zero")
    p_dollar = {}
    p_euro = {}
    for leaf in tree.leaves():
        p_dollar[leaf.id] = (Fraction(0) if leaf.x.is_infinite
                             else p[leaf.id] / (1 - explosion_mass))
        p_euro[leaf.id] = (Fraction(0) if leaf.x.is_zero
                           else p[leaf.id] / (1 - devaluation_mass))
    return PhysicalLattice(tree, p, p_dollar, p_euro)


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
    """Run checks (a)-(c); all are exact rational computations.

    (c) compares the superreplication price restricted to P's support with the
    expectation-formula price for each claim (euro forward by default); on
    complete trees both agree by the pricing theorem.
    """
    tree = pl.tree
    dollar_mass = cylinder_masses(tree, pl.p_dollar)
    euro_mass = cylinder_masses(tree, pl.p_euro)
    support_ok = all((dollar_mass[node.id] > 0) == (euro_mass[node.id] > 0)
                     for node in tree.nodes.values() if node.x.is_finite)

    e_x = sum((tree.prob_dollar[leaf.id] * leaf.x.fraction
               for leaf in tree.leaves() if leaf.x.is_finite), Fraction(0))
    e_inv = sum((tree.prob_euro[leaf.id] / leaf.x.fraction
                 for leaf in tree.leaves() if leaf.x.is_finite), Fraction(0))
    p_explosion = sum((pl.p[leaf.id] for leaf in tree.leaves()
                       if leaf.x.is_infinite), Fraction(0))
    p_devaluation = sum((pl.p[leaf.id] for leaf in tree.leaves()
                         if leaf.x.is_zero), Fraction(0))
    defect_dollar = tree.x0 - e_x
    defect_euro = 1 / tree.x0 - e_inv
    interpretation = ((p_explosion > 0) == (defect_dollar > 0)
                      and (p_devaluation > 0) == (defect_euro > 0))

    if claims is None:
        claims = [tree_euro_forward(tree)]

    p_mass = cylinder_masses(tree, pl.p)

    def p_supported(nid: str) -> bool:
        return p_mass[nid] > 0

    replication_ok = True
    for claim in claims:
        formula = price_on_tree(tree, claim).total_dollar
        restricted, strategy = superreplicate_backward(tree, claim, p_supported)
        verify_strategy(tree, claim, strategy)
        if restricted != formula:
            replication_ok = False

    return PhysicalReport(p_explosion, p_devaluation, defect_dollar,
                          defect_euro, interpretation, support_ok,
                          replication_ok)
