"""Every exact lattice result pinned by digest; big denominators stay exact."""

import hashlib
from fractions import Fraction

import pytest

from dualfx import InfinitePrice
from dualfx.inputs import CLAIM_KINDS, PAYOFFS
from dualfx.lattice import (ParityRow, bayes_check, build_dual_tree,
                            first_hit_rule,
                            martingale_transfer_check,
                            parity_and_equivalence_report, period_rule,
                            price_on_tree, random_claim,
                            random_complete_dual_tree, random_dual_tree,
                            random_rule_pair, random_terminal_values,
                            superreplicate_backward, tree_claim, tree_to_doc,
                            verify_numeraire_identity, verify_strategy)
from dualfx.lattice.tree import stop_map
from dualfx.physical import build_physical, consistency_checks
from tests.test_lattice_pricing import _wealth_oracle

STRIKES = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 3))


def _canon(v):
    """A text form of a result that tells a Fraction from an int or a bool."""
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(_canon, v)) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{k}:{_canon(v[k])}" for k in sorted(v)) + "}"
    return f"{type(v).__name__}:{v}"


def _exact_results(tree, seed):
    """Every exact result the lattice computes on one tree, in a fixed order:
    the leaf rows are (id, state, Q$ mass, Qe mass, Qe mass / x or None)."""
    pd, pe = tree.prob_dollar, tree.prob_euro
    out = [tree_to_doc(tree),
           [(nid, str(x), pd[nid], pe[nid],
             pe[nid] / x.value if x.is_finite else None)
            for nid, x in ((i, tree.nodes[i].x) for i in tree.leaves)],
           [(nid, pd[nid], pe[nid]) for nid in tree.nodes]]
    claims = [random_claim(tree, seed)]
    for kind in CLAIM_KINDS:
        for k in STRIKES if PAYOFFS[kind].takes_strike else [None]:
            claims.append(tree_claim(tree, kind, k))
    for claim in claims:
        try:
            p = price_on_tree(tree, claim)
        except InfinitePrice as exc:
            out.append((claim.kind, str(exc)))
            continue
        out.append((claim.kind, p.classical, p.correction, p.total_dollar,
                    p.total_euro, p.euro_classical, p.euro_correction))
    cost, strategy = superreplicate_backward(tree, claims[0])
    out.append((cost, strategy.price, strategy.holdings, strategy.wealth))
    out.extend(tuple(vars(row).values())
               for row in parity_and_equivalence_report(tree, STRIKES))
    for t in range(tree.periods + 1):
        rule = period_rule(tree, t)
        out.append(verify_numeraire_identity(tree, rule, rule))
        out.append({nid: verify_numeraire_identity(tree, [nid], rule)
                    for nid in rule})
    hit = first_hit_rule(tree, lambda n: not n.x.is_finite)
    out.append(verify_numeraire_identity(tree, hit, hit))
    rho, tau = random_rule_pair(tree, seed)
    out.append(list(bayes_check(tree, random_terminal_values(tree, tau, seed),
                                rho, tau).items()))
    process = random_terminal_values(tree, frozenset(tree.nodes), seed + 1)
    for rule in (rho, period_rule(tree, tree.periods)):
        out.append(martingale_transfer_check(tree, process, rule))
    pl = build_physical(tree)
    out.append((pl.p, pl.p_dollar, pl.p_euro))
    out.append(tuple(vars(consistency_checks(pl)).values()))
    return out


# SHA-256 over _exact_results of seeds 0-49 at 5 periods, per generator,
# recorded before the lattice sums moved to integer numerators; the trees
# rebuilt from their documents' strings give the same digest
LATTICE_DIGESTS = {
    "random_dual_tree":
        "3ddbd9c6e395969c7c93b3eeb4145913fc65dc9016ff8c3c19e5f791bd246b9d",
    "random_complete_dual_tree":
        "c5ce3cefc51e1ab08e39c1d1c210eff8ff07b4dd6e94c65c3481c54d7e1ab1af",
}


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_exact_lattice_results_are_pinned(generate):
    h, from_doc = hashlib.sha256(), hashlib.sha256()
    for seed in range(50):
        tree = generate(seed, 5)
        h.update(_canon(_exact_results(tree, seed)).encode())
        from_doc.update(_canon(_exact_results(
            build_dual_tree(tree_to_doc(tree)), seed)).encode())
    assert h.hexdigest() == LATTICE_DIGESTS[generate.__name__]
    assert from_doc.hexdigest() == LATTICE_DIGESTS[generate.__name__]


# ---------------------------------------------------------------------------
# big denominators: the integer path assumes no machine word size
# ---------------------------------------------------------------------------

P1, P2, P3, P4 = 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**61 - 1   # primes


def _big_tree():
    """A complete two-period tree whose branch masses have the denominators
    P1..P4: the root splits q_hat as w, 1 - w and q as v, 1 - v over two
    finite children; one child can explode (mass 1/P3), the other devalue
    (mass 1/P4)."""
    w, v = Fraction(P1 // 3, P1), Fraction(P2 // 5, P2)
    xu, xd = w / v, (1 - w) / (1 - v)
    e, z = Fraction(1, P3), Fraction(1, P4)
    return build_dual_tree({"x0": "1", "periods": 2, "root": "r", "nodes": [
        {"id": "r", "x": "1", "branches": [["u", str(w)], ["d", str(1 - w)]]},
        {"id": "u", "x": str(xu),
         "branches": [["ue", str(e)], ["uf", str(1 - e)]]},
        {"id": "d", "x": str(xd),
         "branches": [["dz", str(z)], ["df", "1"]]},
        {"id": "ue", "x": "inf"}, {"id": "uf", "x": str((1 - e) * xu)},
        {"id": "dz", "x": "0"}, {"id": "df", "x": str(xd / (1 - z))}]})


def _price_oracle(tree, claim):
    """The two-measure formula leaf by leaf, in Fractions alone."""
    pd, pe, x0 = tree.prob_dollar, tree.prob_euro, tree.x0
    classical = correction = euro_classical = euro_correction = Fraction(0)
    for nid in tree.leaves:
        x, v = tree.nodes[nid].x, Fraction(claim.payoffs[nid],
                                           claim.denominator)
        if x.is_infinite:
            correction += x0 * pe[nid] * v
            euro_classical += pe[nid] * v
            continue
        classical += pd[nid] * v
        if x.is_zero:
            euro_correction += pd[nid] * v / x0
        else:
            euro_classical += pe[nid] * v / x.fraction
    total = classical + correction
    return (classical, correction, total, total / x0, euro_classical,
            euro_correction)


def _parity_oracle(tree, k):
    """One parity row from `_price_oracle` of the four claims of strike k."""
    x0 = tree.x0
    call, put, d_call, d_put = (
        _price_oracle(tree, tree_claim(tree, kind, s)) for kind, s in
        (("call", k), ("put", k), ("dollar_call", 1 / k),
         ("dollar_put", 1 / k)))
    mass = x0 * sum((tree.prob_euro[nid] for nid in tree.leaves
                     if tree.nodes[nid].x.is_infinite), Fraction(0))
    return ParityRow(k, call[2], put[2], call[2] + k - put[2] - x0,
                     call[2] - x0 * k * (d_put[4] + d_put[5]),
                     put[2] - x0 * k * (d_call[4] + d_call[5]),
                     call[0] + k - put[0] - x0, mass)


def _replication_oracle(tree, claim):
    """Backward replication on a complete tree: at each finite node the
    line through its two supported children (a finite or devalued child is
    a point (x, r), an exploded one fixes the euro holding r)."""
    need = {}
    for node in reversed(tree.nodes.values()):
        if node.is_terminal:
            need[node.id] = Fraction(claim.payoffs[node.id],
                                     claim.denominator)
        elif not node.x.is_finite:
            need[node.id] = need[node.branches[0].child]
        else:
            kids = [(tree.nodes[b.child].x, need[b.child])
                    for b in node.branches
                    if tree.prob_dollar[b.child] or tree.prob_euro[b.child]]
            floors = [r for x, r in kids if x.is_infinite]
            (y1, r1), *rest = [(x.fraction, r) for x, r in kids
                               if not x.is_infinite]
            e1 = floors[0] if floors else (rest[0][1] - r1) / (rest[0][0] - y1)
            need[node.id] = r1 + e1 * (node.x.fraction - y1)
    return need[tree.root]


def _identity_oracle(tree, event):
    """Qe(A, X finite or 0) - E_Q$[1_A X] / x0 from the mass maps."""
    return sum((tree.prob_euro[nid] - tree.prob_dollar[nid]
                * tree.nodes[nid].x.fraction / tree.x0
                for nid in event if not tree.nodes[nid].x.is_infinite),
               Fraction(0))


def _bayes_oracle(tree, y, v, under):
    """E_Qe[Y 1{X>0} / X | v] 1{X_v>0}
    - E_Q$[Y 1{X>0} | v] 1{1/X_v>0} / X_v."""
    pd, pe, xv = tree.prob_dollar, tree.prob_euro, tree.nodes[v].x
    fin = [w for w in under if tree.nodes[w].x.is_finite]
    euro = (Fraction(0) if xv.is_zero else sum(
        (pe[w] * y[w] / tree.nodes[w].x.fraction for w in fin), Fraction(0))
        / pe[v])
    dollar = (Fraction(0) if not xv.is_finite else sum(
        (pd[w] * y[w] for w in fin), Fraction(0)) / pd[v] / xv.fraction)
    return euro - dollar


def _transfer_oracle(tree, n, rule):
    """The one-step martingale identities with the branch probabilities."""
    at = stop_map(tree, rule)
    verdicts = [True, True]
    for node in tree.nodes.values():
        if node.is_terminal or at[node.id] is not None or not node.x.is_finite:
            continue
        fin = [b for b in node.branches if tree.nodes[b.child].x.is_finite]
        x = node.x.fraction
        if tree.prob_dollar[node.id] and sum(
                (b.q * n[b.child] for b in fin), Fraction(0)) != n[node.id]:
            verdicts[0] = False
        if tree.prob_euro[node.id] and sum(
                (b.q_hat * n[b.child] / tree.nodes[b.child].x.fraction
                 for b in fin), Fraction(0)) != n[node.id] / x:
            verdicts[1] = False
    return tuple(verdicts)


def test_big_denominators_match_a_fraction_oracle():
    tree = _big_tree()
    d_pd, d_pe, d_x, _ = tree.denominators
    assert d_pd * d_pe * d_x > 2**128
    claims = [tree_claim(tree, "euro_forward"), tree_claim(tree, "call", 1),
              tree_claim(tree, "put", Fraction(P4, P1)), random_claim(tree, 3)]
    for claim in claims:
        p = price_on_tree(tree, claim)
        assert (p.classical, p.correction, p.total_dollar, p.total_euro,
                p.euro_classical, p.euro_correction) \
            == _price_oracle(tree, claim)
        cost, strategy = superreplicate_backward(tree, claim)
        assert cost == _replication_oracle(tree, claim) == p.total_dollar
        verify_strategy(tree, claim, strategy, require_equality=True)
        assert strategy.wealth == _wealth_oracle(tree, strategy)
    strikes = [Fraction(1), Fraction(P4, P1), tree.nodes["uf"].x.fraction]
    rows = parity_and_equivalence_report(tree, strikes)
    assert rows == [_parity_oracle(tree, k) for k in strikes]
    assert all(r.parity_residual == r.intl_call_residual
               == r.intl_put_residual == 0
               and r.classical_violation == -r.explosion_mass != 0
               for r in rows)
    for t in range(tree.periods + 1):
        rule = period_rule(tree, t)
        for event in [rule, *([nid] for nid in rule)]:
            r = verify_numeraire_identity(tree, event, rule)
            assert r == _identity_oracle(tree, event) == 0
    tau = period_rule(tree, 2)
    y = random_terminal_values(tree, tau, 7)
    for t in (0, 1):
        rho = period_rule(tree, t)
        under = {v: [w for w in tau if stop_map(tree, rho)[w] == v]
                 for v in rho}
        res = bayes_check(tree, y, rho, tau)
        assert res == {v: _bayes_oracle(tree, y, v, under[v]) for v in res}
        assert set(res.values()) == {0}
    rate = {nid: n.x.fraction if n.x.is_finite else Fraction(0)
            for nid, n in tree.nodes.items()}
    ones = {nid: Fraction(1) for nid in tree.nodes}
    for n in (rate, ones):
        for rule in (period_rule(tree, 1), tau):
            got = martingale_transfer_check(tree, n, rule)
            assert got == _transfer_oracle(tree, n, rule)
            assert got[0] == got[1]
