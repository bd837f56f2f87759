"""DualTree construction, invariants, stopping rules, and JSON round-trip."""

import json
from fractions import Fraction

import pytest

from dualfx import MeasurabilityError, NormalizationError, StructureError
from dualfx.lattice import (DualTree, build_dual_tree, devaluation_mass,
                            dump_tree, explosion_mass, first_hit_rule,
                            load_tree, one_step_defects, period_rule,
                            random_dual_tree, tree_to_doc, two_period_example,
                            validate_stopping_rule, verify_tree_invariants)
from dualfx.lattice.tree import stop_map


def test_two_period_example_measures():
    t = two_period_example()
    probs = {l.id: (t.prob_dollar[l.id], t.prob_euro[l.id]) for l in t.leaves()}
    assert probs["dn_dn"] == (1, Fraction(1, 4))
    assert probs["dn_up"] == (0, Fraction(1, 4))
    assert probs["up~2"] == (0, Fraction(1, 2))
    # the dollar measure rides the deterministic halving path
    assert t.node("dn").x.fraction == Fraction(1, 2)
    assert t.node("dn_dn").x.fraction == Fraction(1, 4)


def test_derived_dollar_mass_must_normalize():
    # q = {1/8, 9/8} from the density relation: rejected
    with pytest.raises(NormalizationError):
        build_dual_tree({"x0": "1", "periods": 1, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1/4"], ["b", "3/4"]]},
            {"id": "a", "x": "2"}, {"id": "b", "x": "2/3"}]})
    # q = {1/4, 1}: the martingale constraint on q_hat is violated
    with pytest.raises(NormalizationError):
        build_dual_tree({"x0": "1", "periods": 1, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1/2"], ["b", "1/2"]]},
            {"id": "a", "x": "2"}, {"id": "b", "x": "1/2"}]})
    with pytest.raises(NormalizationError):
        build_dual_tree({"x0": "1", "periods": 1, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1/3"]]},
            {"id": "a", "x": "1"}]})


def test_degenerate_tree_measures_coincide():
    t = build_dual_tree({"x0": "2", "periods": 2, "nodes": [
        {"id": "r", "x": "2", "branches": [["a", "1"]]},
        {"id": "a", "x": "2", "branches": [["b", "1"]]},
        {"id": "b", "x": "2"}]})
    for nid in t.nodes:
        assert t.prob_dollar[nid] == t.prob_euro[nid] == 1


def test_absorbing_nodes_must_not_branch():
    with pytest.raises(StructureError):
        build_dual_tree({"x0": "1", "periods": 2, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1"], ["z", "1"]]},
            {"id": "a", "x": "inf", "branches": [["b", "1"]]},
            {"id": "b", "x": "inf"},
            {"id": "z", "x": "0"}]})


def test_absorption_chains_autogenerated():
    t = build_dual_tree({"x0": "1", "periods": 3, "nodes": [
        {"id": "r", "x": "1", "branches": [["e", "1/2"], ["f", "1/2"]]},
        {"id": "e", "x": "inf"},
        {"id": "f", "x": "1/2", "branches": [["g", "1"]]},
        {"id": "g", "x": "1/2", "branches": [["h", "1"]]},
        {"id": "h", "x": "1/2"}]})
    assert t.node("e~3").x.is_infinite
    assert t.prob_euro["e~3"] == Fraction(1, 2)
    assert t.prob_dollar["e~3"] == 0
    verify_tree_invariants(t)


def test_malformed_documents_rejected_cleanly():
    for doc in (
        {},                                            # nothing at all
        {"x0": "1", "periods": 1},                     # no nodes
        {"x0": "1", "periods": 1, "nodes": [{"id": "r"}]},        # no state
        {"x0": "x", "periods": 1, "nodes": [{"id": "r", "x": "1"}]},
        {"x0": "1", "periods": 1,
         "nodes": [{"id": "r", "x": "1", "branches": [["a"]]},    # bad shape
                   {"id": "a", "x": "1"}]},
        {"x0": "1/0", "periods": 1, "nodes": [{"id": "r", "x": "1"}]},
    ):
        with pytest.raises(StructureError):
            build_dual_tree(doc)


def test_orphan_nodes_rejected():
    with pytest.raises(StructureError):
        build_dual_tree({"x0": "1", "periods": 1, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1"]]},
            {"id": "a", "x": "1"},
            {"id": "ghost", "x": "7"}]})


def test_finite_interior_node_needs_branches():
    with pytest.raises(StructureError):
        build_dual_tree({"x0": "1", "periods": 2, "nodes": [
            {"id": "r", "x": "1", "branches": [["a", "1"]]},
            {"id": "a", "x": "1"}]})


def test_explosion_devaluation_only_node():
    # euro mass all explodes, dollar mass all devalues: measures split at once
    t = build_dual_tree({"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1", "branches": [["e", "1"], ["z", "1"]]},
        {"id": "e", "x": "inf"}, {"id": "z", "x": "0"}]})
    assert t.prob_euro["e"] == 1 and t.prob_dollar["e"] == 0
    assert t.prob_dollar["z"] == 1 and t.prob_euro["z"] == 0


def test_one_step_defects_equal_absorption_masses():
    t = two_period_example()
    for nid in ("r", "dn"):
        d_dollar, d_euro = one_step_defects(t, nid)
        x = t.node(nid).x.fraction
        assert d_dollar == x * explosion_mass(t, nid)
        assert d_euro == (1 / x) * devaluation_mass(t, nid)
    assert explosion_mass(t, "r") == Fraction(1, 2)
    assert devaluation_mass(t, "r") == 0


def test_random_trees_satisfy_duality_defects():
    for seed in range(40):
        t = random_dual_tree(seed)
        for node in t.nodes.values():
            if node.x.is_finite and not node.is_terminal:
                d_dollar, d_euro = one_step_defects(t, node.id)
                x = node.x.fraction
                assert d_dollar == x * explosion_mass(t, node.id)
                assert d_euro == (1 / x) * devaluation_mass(t, node.id)


def test_json_roundtrip(tmp_path):
    t = random_dual_tree(17)
    path = tmp_path / "tree.json"
    dump_tree(t, path)
    t2 = load_tree(path)
    assert tree_to_doc(t2) == tree_to_doc(t)
    assert t2.prob_euro == t.prob_euro
    # x-values serialize as exact strings
    doc = json.loads(path.read_text())
    assert all(isinstance(n["x"], str) for n in doc["nodes"])


def test_stopping_rules():
    t = two_period_example()
    assert validate_stopping_rule(t, period_rule(t, 1)) == {"up", "dn"}
    hit = first_hit_rule(t, lambda n: n.x.is_infinite)
    assert hit == {"up", "dn_up", "dn_dn"}
    with pytest.raises(MeasurabilityError):
        validate_stopping_rule(t, {"up"})          # does not cover all paths
    with pytest.raises(MeasurabilityError):
        validate_stopping_rule(t, {"r", "dn"})     # crossed twice
    with pytest.raises(MeasurabilityError):
        period_rule(t, 9)


def test_stop_map_names_the_rule_node_above_each_node():
    t = two_period_example()
    assert stop_map(t, {"up", "dn"}) == {
        "r": None, "up": "up", "up~2": "up",
        "dn": "dn", "dn_up": "dn", "dn_dn": "dn"}
    assert list(stop_map(t, period_rule(t, 2))) == list(t.nodes)


def test_invariants_require_parents_first():
    t = two_period_example()
    verify_tree_invariants(t)
    children_first = DualTree(t.periods, t.x0, t.root,
                              dict(reversed(t.nodes.items())),
                              t.prob_dollar, t.prob_euro)
    with pytest.raises(StructureError):
        verify_tree_invariants(children_first)
