"""Exact verification of the change-of-numeraire identities on dual trees.

Each check returns residuals computed in rational arithmetic; on a valid tree
every residual is exactly zero, which is what makes the lattice usable as an
oracle for the continuous-time pricing operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import ClaimError, MeasurabilityError
from .tree import ZERO, DualTree, _over_lcm, _ratio, stop_map


def _check_value(v, what: str, where: str, nid: str) -> None:
    """ClaimError, naming nid, unless v is a non-bool int or Fraction >= 0."""
    if (type(v) not in (int, Fraction)
            and (isinstance(v, bool) or not isinstance(v, (int, Fraction)))
            or v.numerator < 0):
        raise ClaimError(f"{what} {v!r} at {where} {nid!r} is not an int "
                         "or Fraction >= 0")


def _numerators(values: Mapping, ids: list[str], what: str, where: str
                ) -> tuple[dict[str, int], int]:
    """The values at `ids` over their least common denominator, checked by the
    pass that collects them: ClaimError names every id without a value, or
    the first that fails `_check_value`."""
    missing, vs = [], []
    for nid in ids:
        v = values.get(nid)
        if v is None:
            missing.append(nid)
        else:
            _check_value(v, what, where, nid)
        vs.append(v)
    if missing:
        raise ClaimError(f"{what} not defined at {where}s {sorted(missing)}")
    ns, d = _over_lcm(vs)
    return dict(zip(ids, ns)), d


def verify_numeraire_identity(tree: DualTree, event: Iterable[str],
                              rule: Iterable[str]) -> Fraction:
    """Residual of  Qe(A & {1/X_tau > 0}) - E_Q$[1_A * X_tau] / x0.

    `rule` is a stopping rule (antichain covering all paths) and `event` a
    subset of its nodes.  Exact zero on every valid tree.
    """
    tau = frozenset(rule)
    stop_map(tree, tau)
    ev = frozenset(event)
    if not ev <= tau:
        raise MeasurabilityError("event is not determined at the stopping rule")
    lhs = rhs = 0       # over De, and over D$ Dx
    for nid in ev:
        pd, pe, x, _ = tree.numerators[nid]
        if x is not None:   # inf carries no dollar mass, and 0 adds x = 0
            lhs += pe
            rhs += pd * x
    d_pd, d_pe, d_x, _ = tree.denominators
    x0n, x0d = tree.x0.as_integer_ratio()
    return _ratio(lhs * d_pd * d_x * x0n - rhs * d_pe * x0d,
                  d_pe * d_pd * d_x * x0n)


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
    y, d_y = _numerators(terminal_values,
                         [w for ws in under.values() for w in ws],
                         "payoff", "tau node")
    num = tree.numerators
    d_inv = tree.denominators[3]
    residuals: dict[str, Fraction] = {}
    for v, ws in under.items():
        pd, pe, x, inv = num[v]
        if not (pd or pe):
            continue
        if x == 0:      # both sides vanish: 1{X_v > 0}, and inf * 0 = 0
            residuals[v] = ZERO
            continue
        # over Dy D1/x De and Dy D$; X_v > 0 with mass forces pe > 0
        euro = dollar = 0
        for w in ws:
            pd_w, pe_w, x_w, inv_w = num[w]
            if x_w:
                euro += pe_w * y[w] * inv_w
                dollar += pd_w * y[w]
        if x is None:   # 1{1/X_v > 0} kills the dollar side
            residuals[v] = _ratio(euro, d_y * d_inv * pe)
        else:
            residuals[v] = _ratio(euro * pd - dollar * inv * pe,
                                  d_y * d_inv * pe * pd)
    return residuals


def martingale_transfer_check(tree: DualTree, process: Mapping[str, Fraction],
                              rule: Iterable[str]) -> tuple[bool, bool]:
    """Martingale property of N 1{X > 0} under Q$ and (N 1{1/X > 0})/X under Qe.

    `process` assigns a nonnegative rational N to every finite node before
    `rule`, where both processes stop, and to their finite children (else
    ClaimError names the node).  Returns the pair of booleans; the two are always equal on a valid tree
    (the transfer principle the lattice certifies).  Each one-step identity
    is compared times the node's mass, over its finite children b:
    sum pd_b N_b = pd N, and sum pe_b N_b / x_b = pe N / x.
    """
    at = stop_map(tree, rule)
    num = tree.numerators
    # the nodes read: the finite ones whose parent, or which as the root,
    # comes before the rule
    n, _ = _numerators(process, [
        nid for nid, node in tree.nodes.items() if num[nid][2]
        and at[nid if node.parent is None else node.parent] is None],
        "process value", "node")
    is_q = is_q_hat = True
    for node in tree.nodes.values():
        pd, pe, x, inv = num[node.id]
        if not x or node.is_terminal or at[node.id] is not None:
            continue
        dollar = euro = 0
        for b in node.branches:
            pd_b, pe_b, x_b, inv_b = num[b.child]
            if x_b:
                dollar += pd_b * n[b.child]
                euro += pe_b * n[b.child] * inv_b
        if pd and dollar != pd * n[node.id]:
            is_q = False
        if pe and euro != pe * n[node.id] * inv:
            is_q_hat = False
    return is_q, is_q_hat
