"""Measure-pair identity checks: worked examples plus shrinking property tests."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfx import ClaimError, DualFXError, MeasurabilityError
from dualfx.lattice import (bayes_check, build_dual_tree,
                            martingale_transfer_check, period_rule,
                            random_dual_tree, random_rule_pair,
                            random_terminal_values, two_period_example,
                            verify_numeraire_identity)

# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


def test_numeraire_identity_on_example():
    t = two_period_example()
    tau = period_rule(t, 2)
    # Qe(1/X_T > 0) = 1/4 and E[X_T]/x0 = 1/4
    assert verify_numeraire_identity(t, tau, tau) == 0
    assert verify_numeraire_identity(t, [], tau) == 0
    root = period_rule(t, 0)
    assert verify_numeraire_identity(t, root, root) == 0


def test_numeraire_identity_all_single_node_events():
    t = two_period_example()
    for period in range(3):
        tau = period_rule(t, period)
        for nid in tau:
            assert verify_numeraire_identity(t, [nid], tau) == 0


def test_bayes_example_y_is_rate():
    t = two_period_example()
    tau = period_rule(t, 1)
    y = {"up": Fraction(0), "dn": Fraction(1, 2)}  # X_1 with inf mapped to 0
    res = bayes_check(t, y, period_rule(t, 0), tau)
    assert res == {"r": 0}
    # both sides equal 1/2 individually: Qe(X_1 finite) and E[X_1]/x0
    assert t.prob_euro["dn"] == Fraction(1, 2)


def test_bayes_rejects_rho_after_tau():
    t = two_period_example()
    early, late = period_rule(t, 1), period_rule(t, 2)
    y = {nid: Fraction(1) for nid in early}
    with pytest.raises(MeasurabilityError):
        bayes_check(t, y, late, early)


def test_bayes_names_the_tau_nodes_without_a_payoff():
    t = two_period_example()
    y = {"dn_dn": Fraction(1)}
    with pytest.raises(ClaimError) as info:
        bayes_check(t, y, period_rule(t, 1), period_rule(t, 2))
    assert isinstance(info.value, DualFXError)
    assert str(info.value) == \
        "payoff not defined at tau nodes ['dn_up', 'up~2']"


@pytest.mark.parametrize("value, shown", [
    (Fraction(-1), "Fraction(-1, 1)"), (-2, "-2"), (0.5, "0.5"),
    (True, "True"), ("1/2", "'1/2'")],
    ids=["negative_fraction", "negative_int", "float", "bool", "string"])
def test_bayes_and_transfer_refuse_values_that_are_not_rationals_ge_0(
        value, shown):
    t = two_period_example()
    tau = period_rule(t, 2)
    y = {nid: value if nid == "dn_dn" else Fraction(1) for nid in tau}
    with pytest.raises(ClaimError, match=re.escape(
            f"payoff {shown} at tau node 'dn_dn' is not an int or Fraction")):
        bayes_check(t, y, period_rule(t, 1), tau)
    n = {nid: value if nid == "dn" else Fraction(1) for nid in t.nodes}
    with pytest.raises(ClaimError, match=re.escape(
            f"process value {shown} at node 'dn' is not an int or Fraction")):
        martingale_transfer_check(t, n, tau)


def test_transfer_names_the_nodes_without_a_value():
    t = two_period_example()
    n = {nid: Fraction(1) for nid in t.nodes if nid not in ("dn", "dn_dn")}
    with pytest.raises(ClaimError) as info:
        martingale_transfer_check(t, n, period_rule(t, 2))
    assert isinstance(info.value, DualFXError)
    assert str(info.value) == \
        "process value not defined at nodes ['dn', 'dn_dn']"
    # nodes after the rule and absorbed nodes are never read
    early = {nid: Fraction(1) for nid in ("r", "dn")}
    assert martingale_transfer_check(t, early, period_rule(t, 1)) \
        == (True, True)
    assert martingale_transfer_check(t, {}, period_rule(t, 0)) == (True, True)


def test_bayes_residuals_in_tree_order():
    t = two_period_example()
    y = {nid: Fraction(1) for nid in period_rule(t, 2)}
    res = bayes_check(t, y, period_rule(t, 1), period_rule(t, 2))
    assert list(res) == ["up", "dn"]


def test_bayes_degenerate_cases():
    t = two_period_example()
    tau = period_rule(t, 2)
    ones = {nid: Fraction(1) for nid in tau}
    zeros = {nid: Fraction(0) for nid in tau}
    assert all(v == 0 for v in bayes_check(t, ones, tau, tau).values())
    assert all(v == 0 for v in bayes_check(t, zeros, period_rule(t, 0),
                                           tau).values())


def test_transfer_example_rate_process():
    t = two_period_example()
    tau = period_rule(t, 2)
    n = {nid: (node.x.fraction if node.x.is_finite else Fraction(0))
         for nid, node in t.nodes.items()}
    # the rate drops mass to explosion under both measures: not martingales,
    # and the two verdicts agree
    assert martingale_transfer_check(t, n, tau) == (False, False)


def _two_sided_tree(explosion: bool, devaluation: bool):
    # x0 = 1 with children 3/2 and 3/4; absorption, when present, happens in
    # the second period only
    branches_a = [["af", "1"]] if not explosion else [["ae", "1/3"], ["af", "2/3"]]
    branches_b = [["bf", "1"]] if not devaluation else [["bz", "1/4"], ["bf", "1"]]
    nodes = [
        {"id": "r", "x": "1", "branches": [["a", "1/2"], ["b", "1/2"]]},
        {"id": "a", "x": "3/2", "branches": branches_a},
        {"id": "b", "x": "3/4", "branches": branches_b},
        {"id": "af", "x": "1" if explosion else "3/2"},
        {"id": "bf", "x": "1" if devaluation else "3/4"},
    ]
    if explosion:
        nodes.append({"id": "ae", "x": "inf"})
    if devaluation:
        nodes.append({"id": "bz", "x": "0"})
    return build_dual_tree({"x0": "1", "periods": 2, "nodes": nodes})


def test_transfer_constant_process_mass_variants():
    tau_of = lambda t: period_rule(t, 2)
    both = _two_sided_tree(True, True)
    c = {nid: Fraction(3) for nid in both.nodes}
    assert martingale_transfer_check(both, c, tau_of(both)) == (False, False)
    neither = _two_sided_tree(False, False)
    c = {nid: Fraction(3) for nid in neither.nodes}
    assert martingale_transfer_check(neither, c, tau_of(neither)) == (True, True)


def test_transfer_stopped_before_absorption():
    t = _two_sided_tree(True, True)
    ones = {nid: Fraction(1) for nid in t.nodes}
    assert martingale_transfer_check(t, ones, period_rule(t, 1)) == (True, True)


def test_transfer_verdicts_always_agree_on_random_trees():
    for seed in range(50):
        t = random_dual_tree(seed)
        tau = period_rule(t, t.periods)
        n = {nid: (node.x.fraction if node.x.is_finite else Fraction(0))
             for nid, node in t.nodes.items()}
        q, q_hat = martingale_transfer_check(t, n, tau)
        assert q == q_hat


# ---------------------------------------------------------------------------
# shrinking property test: a structural hypothesis strategy for dual trees
# ---------------------------------------------------------------------------

@st.composite
def tree_docs(draw, max_periods: int = 3):
    periods = draw(st.integers(1, max_periods))
    x0 = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    nodes = []
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def grow(nid: str, x: Fraction, t: int) -> None:
        if t == periods:
            nodes.append({"id": nid, "x": str(x)})
            return
        explode = draw(st.booleans())
        devalue = draw(st.booleans())
        n_fin = draw(st.integers(0 if (explode and devalue) else 1, 2))
        branches = []
        kids = []
        m = Fraction(0)
        z = Fraction(0)
        if explode:
            m = Fraction(1) if n_fin == 0 else Fraction(draw(st.integers(1, 3)), 6)
            cid = fresh("e")
            branches.append([cid, str(m)])
            nodes.append({"id": cid, "x": "inf"})
        if devalue:
            z = Fraction(1) if n_fin == 0 else Fraction(draw(st.integers(1, 3)), 6)
            cid = fresh("z")
            branches.append([cid, str(z)])
            nodes.append({"id": cid, "x": "0"})
        if n_fin:
            wq = [draw(st.integers(1, 4)) for _ in range(n_fin)]
            wh = [draw(st.integers(1, 4)) for _ in range(n_fin)]
            for i in range(n_fin):
                q_hat = (1 - m) * wh[i] / sum(wh)
                q = (1 - z) * wq[i] / sum(wq)
                cid = fresh("f")
                branches.append([cid, str(q_hat)])
                kids.append((cid, q_hat * x / q))
        nodes.append({"id": nid, "x": str(x), "branches": branches})
        for cid, cx in kids:
            grow(cid, cx, t + 1)

    grow("r", x0, 0)
    return {"x0": str(x0), "periods": periods, "root": "r", "nodes": nodes}


@settings(max_examples=60, deadline=None)
@given(doc=tree_docs(), t1=st.integers(0, 3), span=st.integers(0, 3),
       payoff_seed=st.integers(0, 10**6))
def test_bayes_residuals_vanish_on_generated_trees(doc, t1, span, payoff_seed):
    tree = build_dual_tree(doc)
    rho = period_rule(tree, min(t1, tree.periods))
    tau = period_rule(tree, min(t1 + span, tree.periods))
    y = random_terminal_values(tree, tau, payoff_seed)
    residuals = bayes_check(tree, y, rho, tau)
    assert all(v == 0 for v in residuals.values())


@settings(max_examples=60, deadline=None)
@given(doc=tree_docs(), t=st.integers(0, 3))
def test_numeraire_identity_vanishes_on_generated_trees(doc, t):
    tree = build_dual_tree(doc)
    tau = period_rule(tree, min(t, tree.periods))
    assert verify_numeraire_identity(tree, tau, tau) == 0
    for nid in sorted(tau):
        assert verify_numeraire_identity(tree, [nid], tau) == 0


def test_bayes_on_random_rule_pairs():
    for seed in range(60):
        tree = random_dual_tree(seed)
        rho, tau = random_rule_pair(tree, seed * 13 + 5)
        y = random_terminal_values(tree, tau, seed * 17 + 1)
        residuals = bayes_check(tree, y, rho, tau)
        assert all(v == 0 for v in residuals.values())


def test_random_terminal_values_ignore_rule_order():
    for seed in range(20):
        tree = random_dual_tree(seed)
        _, tau = random_rule_pair(tree, seed)
        forward = random_terminal_values(tree, sorted(tau), seed)
        backward = random_terminal_values(tree, sorted(tau, reverse=True), seed)
        assert forward == backward
        assert list(forward) == [nid for nid in tree.nodes if nid in tau]
