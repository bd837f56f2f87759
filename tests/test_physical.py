"""Physical measure on lattices: mixture construction, conditioning, checks."""

from fractions import Fraction

import pytest

from dualfx.errors import ConfigError
from dualfx.lattice import (build_dual_tree, random_claim,
                            random_complete_dual_tree, random_dual_tree,
                            tree_claim, tree_euro_forward, two_period_example)
from dualfx.physical import (PhysicalLattice, build_physical,
                             consistency_checks, cylinder_masses)


def test_mixture_and_conditioning_on_example():
    t = two_period_example()
    pl = build_physical(t)
    # P(explosion) = (0 + 3/4)/2
    assert sum(pl.p[nid] for nid in t.leaves if t.nodes[nid].x.is_infinite) \
        == Fraction(3, 8)
    # conditioning on no explosion leaves the single dollar path, weight one
    assert pl.p_dollar["dn_dn"] == 1
    assert pl.p_dollar["dn_up"] == 0
    # the euro-conditioned measure keeps all paths (no devaluation here)
    assert pl.p_euro == pl.p


def test_devaluation_only_tree():
    t = build_dual_tree({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1", "branches": [["z", "1/4"], ["f", "1"]]},
        {"id": "z", "x": "0"}, {"id": "f", "x": "4/3"}]})
    pl = build_physical(t)
    assert pl.p["z"] == Fraction(1, 8)
    assert pl.p_euro["z"] == 0
    assert pl.p_euro["f"] == 1
    assert pl.p_dollar == pl.p   # no explosion: conditioning is the identity
    rep = consistency_checks(pl)
    assert rep.p_devaluation == Fraction(1, 8)
    assert rep.p_explosion == 0
    assert rep.defect_dollar == 0
    assert rep.defect_euro == Fraction(1, 4)
    assert rep.interpretation_holds
    assert rep.support_checks_passed
    assert rep.replication_price_matches


def test_no_mass_tree_conditioning_is_identity():
    t = build_dual_tree({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1", "branches": [["u", "2/3"], ["d", "1/3"]]},
        {"id": "u", "x": "2"}, {"id": "d", "x": "1/2"}]})
    pl = build_physical(t)
    assert pl.p_dollar == pl.p == pl.p_euro
    rep = consistency_checks(pl)
    assert rep.p_explosion == rep.p_devaluation == 0
    assert rep.defect_dollar == 0 and rep.defect_euro == 0
    assert rep.interpretation_holds


def test_example_tree_interpretation_and_replication():
    t = two_period_example()
    rep = consistency_checks(build_physical(t),
                             [tree_euro_forward(t), tree_claim(t, "call", 1)])
    assert rep.p_explosion == Fraction(3, 8) > 0
    assert rep.defect_dollar == Fraction(3, 4) > 0
    assert rep.interpretation_holds
    assert rep.support_checks_passed
    assert rep.replication_price_matches


def test_absolute_continuity_support_inclusions():
    for seed in range(40):
        t = random_complete_dual_tree(seed)
        pl = build_physical(t)
        for nid in t.leaves:
            if pl.p_dollar[nid] > 0 or pl.p_euro[nid] > 0:
                assert pl.p[nid] > 0
            if pl.p[nid] > 0:
                assert pl.p_dollar[nid] > 0 or pl.p_euro[nid] > 0


def test_cylinder_masses_match_leaf_sums():
    for seed in range(60):
        t = random_complete_dual_tree(seed)
        pl = build_physical(t)
        for leaf_mass in (pl.p, pl.p_dollar, pl.p_euro):
            mass = cylinder_masses(t, leaf_mass)
            for nid in t.nodes:
                below, stack = Fraction(0), [nid]
                while stack:
                    node = t.nodes[stack.pop()]
                    if node.is_terminal:
                        below += leaf_mass[node.id]
                    stack.extend(b.child for b in node.branches)
                assert mass[nid] == below, (seed, nid)


def test_consistency_checks_on_random_trees():
    for seed in range(60):
        t = random_complete_dual_tree(seed)
        rep = consistency_checks(
            build_physical(t),
            [tree_euro_forward(t), tree_claim(t, "call", t.x0)])
        assert rep.support_checks_passed
        assert rep.interpretation_holds
        assert rep.replication_price_matches
        assert (rep.p_explosion > 0) == (rep.defect_dollar > 0)
        assert (rep.p_devaluation > 0) == (rep.defect_euro > 0)


def test_zero_mass_edge_cases():
    for seed in range(25):
        only_up = random_complete_dual_tree(seed, allow_devaluation=False)
        rep = consistency_checks(build_physical(only_up))
        assert rep.p_devaluation == 0 and rep.defect_euro == 0
        assert rep.interpretation_holds and rep.support_checks_passed
        only_dn = random_complete_dual_tree(seed, allow_explosion=False)
        rep = consistency_checks(build_physical(only_dn))
        assert rep.p_explosion == 0 and rep.defect_dollar == 0
        assert rep.interpretation_holds and rep.support_checks_passed
        neither = random_complete_dual_tree(seed, allow_explosion=False,
                                            allow_devaluation=False)
        rep = consistency_checks(build_physical(neither))
        assert rep.p_explosion == rep.p_devaluation == 0
        assert rep.interpretation_holds and rep.support_checks_passed


def test_support_check_fails_when_the_restrictions_disagree():
    # (a): a no-explosion map that drops dn_dn leaves the dollar side with no
    # mass where the euro side still has some
    t = two_period_example()
    p, d, e = build_physical(t)._masses
    rep = consistency_checks(PhysicalLattice(t, (p, {**d, "dn_dn": 0}, e)))
    assert not rep.support_checks_passed
    assert rep.interpretation_holds and rep.replication_price_matches


def test_interpretation_fails_when_the_explosion_is_hidden():
    # (b): taking P itself as the no-explosion map gives explosion P-mass 0
    # against a dollar defect of 3/4
    t = two_period_example()
    p, _, e = build_physical(t)._masses
    rep = consistency_checks(PhysicalLattice(t, (p, dict(p), e)))
    assert rep.p_explosion == 0 and rep.defect_dollar == Fraction(3, 4)
    assert not rep.interpretation_holds
    assert rep.support_checks_passed and rep.replication_price_matches


def test_replication_fails_on_an_incomplete_tree():
    # (c): three supported branches make the hedge cost more than the formula
    t = random_dual_tree(0, 3)
    rep = consistency_checks(build_physical(t), [random_claim(t, 0)])
    assert not rep.replication_price_matches
    assert rep.support_checks_passed and rep.interpretation_holds


def test_an_empty_claim_list_is_refused():
    with pytest.raises(ConfigError, match="at least one claim"):
        consistency_checks(build_physical(two_period_example()), claims=[])


def test_the_forward_from_the_law_matches_the_forward_per_leaf():
    # the default prices the euro forward from the terminal law, an explicit
    # claim list through `price_on_tree`
    for make in (random_dual_tree, random_complete_dual_tree):
        for seed in range(300):
            t = make(seed, 5)
            pl = build_physical(t)
            assert consistency_checks(pl) == consistency_checks(
                pl, [tree_euro_forward(t)]), (make.__name__, seed)
