"""Exact verification of the change-of-numeraire identities on dual trees.

Each check returns residuals computed in rational arithmetic; on a valid tree
every residual is exactly zero, which is what makes the lattice usable as an
oracle for the continuous-time pricing operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import MeasurabilityError
from .tree import DualTree, stop_map, validate_event, validate_stopping_rule


def verify_numeraire_identity(tree: DualTree, event: Iterable[str],
                              rule: Iterable[str]) -> Fraction:
    """Residual of  Qe(A & {1/X_tau > 0}) - E_Q$[1_A * X_tau] / x0.

    `rule` is a stopping rule (antichain covering all paths) and `event` a
    subset of its nodes.  Exact zero on every valid tree.
    """
    tau = validate_stopping_rule(tree, rule)
    ev = validate_event(tree, tau, event)
    lhs = Fraction(0)
    rhs = Fraction(0)
    for nid in ev:
        node = tree.node(nid)
        if not node.x.is_infinite:
            lhs += tree.prob_euro[nid]
        if node.x.is_finite:
            rhs += tree.prob_dollar[nid] * node.x.fraction
        # zero states contribute x = 0 to the dollar side, infinite states
        # carry no dollar mass
    return lhs - rhs / tree.x0


def bayes_check(tree: DualTree, terminal_values: Mapping[str, Fraction],
                rho: Iterable[str], tau: Iterable[str]) -> dict[str, Fraction]:
    """Per-node residuals of the conditional change-of-measure identity.

    `terminal_values` assigns a nonnegative rational to every node of `tau`
    (the payoff Y, measurable at tau).  For each node v of `rho` carrying
    positive mass under either measure the residual of

        E_Qe[Y 1{1/X_tau > 0} / X_tau | v] 1{X_v > 0}
            - E_Q$[Y 1{X_tau > 0} | v] 1{1/X_v > 0} / X_v

    is returned, in tree order; all residuals are exactly zero on a valid tree.
    """
    rho_at = stop_map(tree, rho)
    tau_at = stop_map(tree, tau)
    # tau nodes grouped under their rho node, in tree order; rho <= tau means
    # every tau node has a rho node at or above it
    under: dict[str, list[str]] = {}
    for w, stop in tau_at.items():
        if stop != w:
            continue
        if rho_at[w] is None:
            raise MeasurabilityError("rho does not precede tau on every path")
        under.setdefault(rho_at[w], []).append(w)
    missing = [w for ws in under.values() for w in ws if w not in terminal_values]
    if missing:
        raise KeyError(f"payoff not defined at tau nodes {sorted(missing)}")

    residuals: dict[str, Fraction] = {}
    for v in under:
        pd, pe = tree.prob_dollar[v], tree.prob_euro[v]
        if pd == 0 and pe == 0:
            continue
        xv = tree.node(v).x
        # euro side, killed by 1{X_v > 0}
        if xv.is_zero:
            lhs = Fraction(0)
        else:
            # X_v nonzero with positive mass forces pe > 0 on a valid tree
            lhs = sum((tree.prob_euro[w] * Fraction(terminal_values[w])
                       / tree.node(w).x.fraction
                       for w in under[v] if tree.node(w).x.is_finite),
                      Fraction(0)) / pe
        # dollar side, killed by 1{1/X_v > 0}; at X_v = 0 the inner
        # expectation vanishes and inf * 0 = 0 applies
        if xv.is_infinite or xv.is_zero:
            rhs = Fraction(0)
        else:
            rhs = sum((tree.prob_dollar[w] * Fraction(terminal_values[w])
                       for w in under[v] if not tree.node(w).x.is_zero),
                      Fraction(0)) / pd / xv.fraction
        residuals[v] = lhs - rhs
    return residuals


def martingale_transfer_check(tree: DualTree, process: Mapping[str, Fraction],
                              rule: Iterable[str]) -> tuple[bool, bool]:
    """Martingale property of N 1{X > 0} under Q$ and (N 1{1/X > 0})/X under Qe.

    `process` assigns a nonnegative rational N to every node; both processes
    are stopped at `rule`.  Returns the pair of booleans; the two are always
    equal on a valid tree (the transfer principle the lattice certifies).
    """
    at = stop_map(tree, rule)
    is_q = True
    is_q_hat = True
    for node in tree.nodes.values():
        if node.is_terminal or at[node.id] is not None:
            continue
        # dollar side at nodes the dollar measure can see
        if tree.prob_dollar[node.id] > 0:
            val = Fraction(process[node.id]) if node.x.is_finite else Fraction(0)
            step = sum((b.q * Fraction(process[b.child])
                        for b in node.branches if tree.node(b.child).x.is_finite),
                       Fraction(0))
            if node.x.is_zero:
                step = Fraction(0)  # subtree is devalued, indicator kills N
            if step != val:
                is_q = False
        # euro side at nodes the euro measure can see
        if tree.prob_euro[node.id] > 0:
            if node.x.is_infinite:
                val = Fraction(0)
                step = Fraction(0)
            else:
                val = Fraction(process[node.id]) / node.x.fraction
                step = sum((b.q_hat * Fraction(process[b.child])
                            / tree.node(b.child).x.fraction
                            for b in node.branches
                            if tree.node(b.child).x.is_finite),
                           Fraction(0))
            if step != val:
                is_q_hat = False
    return is_q, is_q_hat
