"""DualTree construction, invariants, stopping rules, and JSON round-trip."""

import dataclasses
import json
import math
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfx import (ConfigError, DualFXError, MeasurabilityError,
                    NormalizationError, StructureError)
from dualfx.cli import main
from dualfx.lattice import (build_dual_tree, dump_tree, first_hit_rule,
                            load_tree, period_rule, price_on_tree, random_complete_dual_tree,
                            random_dual_tree, random_rule_pair, tree_to_doc,
                            tree_claim, tree_euro_forward, two_period_example,
                            verify_numeraire_identity, verify_tree_invariants)
from dualfx.lattice.tree import (MAX_CHAIN_NODES, Branch, ExtendedValue,
                                 _as_x, _rational, stop_map)


def test_two_period_example_measures():
    t = two_period_example()
    probs = {nid: (t.prob_dollar[nid], t.prob_euro[nid]) for nid in t.leaves}
    assert probs["dn_dn"] == (1, Fraction(1, 4))
    assert probs["dn_up"] == (0, Fraction(1, 4))
    assert probs["up~2"] == (0, Fraction(1, 2))
    # the dollar measure rides the deterministic halving path
    assert t.nodes["dn"].x.fraction == Fraction(1, 2)
    assert t.nodes["dn_dn"].x.fraction == Fraction(1, 4)


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
    assert t.nodes["e~3"].x.is_infinite
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


def _one_step_doc(x0="3/2", periods=1, xs=("0.3", "2.7"),
                  masses=("0.1", "0.9")):
    """x0 -> 0.3 or 2.7 with euro masses 0.1 and 0.9: dollar masses 1/2."""
    return {"x0": x0, "periods": periods, "root": "r", "nodes": [
        {"id": "r", "x": x0,
         "branches": [["dn", masses[0]], ["up", masses[1]]]},
        {"id": "dn", "x": xs[0]}, {"id": "up", "x": xs[1]}]}


def test_float_numbers_are_read_by_their_shortest_repr():
    """0.1 + 0.9 is 1 as written, not as binary floats; the float document
    and the string document build the same tree."""
    floats = build_dual_tree(_one_step_doc(1.5, 1, (0.3, 2.7), (0.1, 0.9)))
    strings = build_dual_tree(_one_step_doc())
    assert tree_to_doc(floats) == tree_to_doc(strings)
    assert floats.nodes["dn"].x.fraction == Fraction(3, 10)
    assert floats.prob_euro["dn"] == Fraction(1, 10)
    assert floats.prob_dollar["dn"] == Fraction(1, 2)


@pytest.mark.parametrize("periods", [2.7, "3/2", True, 0, "x"])
def test_periods_must_be_a_whole_number(periods):
    with pytest.raises(StructureError):
        build_dual_tree(_one_step_doc(periods=periods))


def test_whole_periods_in_any_number_form_build():
    for periods in (1, 1.0, "1"):
        tree = build_dual_tree(_one_step_doc(periods=periods))
        assert tree.periods == 1


@pytest.mark.parametrize("where", ["x0", "x", "mass"])
def test_bools_are_not_numbers(where):
    doc = _one_step_doc("1", xs=("1/5", "9/5"), masses=("1/10", "9/10"))
    if where == "x0":
        doc["x0"] = doc["nodes"][0]["x"] = True
    elif where == "x":
        doc["nodes"][1]["x"] = True
    else:
        doc["nodes"][0]["branches"][0][1] = True
    with pytest.raises(StructureError, match="bool"):
        build_dual_tree(doc)


def _written_fresh(doc):
    """The document with the k-th occurrence of each state or mass string
    p/q written as (k*p)/(k*q): the same numbers, no string repeated."""
    seen: dict[str, int] = {}

    def fresh(s):
        if s == "inf":
            return s
        k = seen[s] = seen.get(s, 0) + 1
        f = Fraction(s)
        return f"{k * f.numerator}/{k * f.denominator}"
    return {**doc, "nodes": [
        {**entry, "x": fresh(entry["x"]),
         **({"branches": [[c, fresh(m)] for c, m in entry["branches"]]}
            if "branches" in entry else {})}
        for entry in doc["nodes"]]}


def test_repeated_number_strings_build_the_fresh_tree():
    repeats = 0
    for seed in range(40):
        doc = tree_to_doc(random_dual_tree(seed, 4))
        strings = [s for e in doc["nodes"] for s in
                   [e["x"], *(m for _, m in e.get("branches", []))]]
        repeats += len(strings) - len(set(strings))
        assert build_dual_tree(doc) == build_dual_tree(_written_fresh(doc))
    assert repeats > 100


@pytest.mark.parametrize("earlier", ["1", 1])
@pytest.mark.parametrize("where", ["x", "mass"])
def test_a_bool_after_an_equal_number_is_refused(earlier, where):
    """True hashes and compares as 1, and is still no number."""
    doc = {"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": earlier,
         "branches": [["a", earlier], ["b", "0"]]},
        {"id": "a", "x": earlier}, {"id": "b", "x": "1"}]}
    build_dual_tree(doc)
    if where == "x":
        doc["nodes"][2]["x"] = True
    else:
        doc["nodes"][0]["branches"][1][1] = True
    with pytest.raises(StructureError, match="bool"):
        build_dual_tree(doc)


def test_a_float_after_an_equal_string_reads_by_its_shortest_repr():
    t = build_dual_tree({"x0": "1/10", "periods": 1, "nodes": [
        {"id": "r", "x": "1/10",
         "branches": [["a", "1/10"], ["b", 0.1], ["c", "4/5"]]},
        {"id": "a", "x": "1/10"}, {"id": "b", "x": 0.1},
        {"id": "c", "x": "1/10"}]})
    assert [b.q_hat for b in t.nodes["r"].branches] == [
        Fraction(1, 10), Fraction(1, 10), Fraction(4, 5)]
    assert t.nodes["b"].x.fraction == Fraction(1, 10)


@pytest.mark.parametrize("where", ["x", "mass"])
def test_a_repeated_malformed_string_fails_at_its_first_reading(where):
    def doc(bad_twice):
        xs, ms = ["1", "1"], ["1/2", "1/2"]
        (xs if where == "x" else ms)[0] = "1/x"
        if bad_twice:
            (xs if where == "x" else ms)[1] = "1/x"
        return {"x0": "1", "periods": 1, "nodes": [
            {"id": "r", "x": "1",
             "branches": [["a", ms[0]], ["b", ms[1]]]},
            {"id": "a", "x": xs[0]}, {"id": "b", "x": xs[1]}]}

    messages = []
    for bad_twice in (False, True):
        with pytest.raises(StructureError, match="1/x") as err:
            build_dual_tree(doc(bad_twice))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_builds_share_no_parsed_number():
    """Each build reads its own strings: a state or mass string read twice
    in one build gives one object, and two builds share none."""
    doc = tree_to_doc(random_dual_tree(3, 4))
    first, second = build_dual_tree(doc), build_dual_tree(doc)
    declared = {e["id"] for e in doc["nodes"]}
    for nid in declared:
        assert first.nodes[nid].x is not second.nodes[nid].x
        for b, c in zip(first.nodes[nid].branches, second.nodes[nid].branches):
            # the mass read from the document: q at a devalued child
            mass = b.q if first.nodes[b.child].x.is_zero else b.q_hat
            other = c.q if first.nodes[b.child].x.is_zero else c.q_hat
            assert mass is not other
    by_state: dict[str, list] = {}
    for entry in doc["nodes"]:
        by_state.setdefault(entry["x"], []).append(first.nodes[entry["id"]].x)
    assert any(len(xs) > 1 for xs in by_state.values())
    assert all(x is xs[0] for xs in by_state.values() for x in xs)


def test_state_predicates_and_values():
    assert _as_x("0").is_zero and _as_x("0") == ExtendedValue(Fraction(0))
    assert ExtendedValue(Fraction(3, 7)).is_finite
    assert _as_x("inf").is_infinite and _as_x("inf") == ExtendedValue(None)
    for x, kinds in ((_as_x(0), (True, False, False)),
                     (_as_x(5), (False, True, False)),
                     (ExtendedValue(None), (False, False, True))):
        assert (x.is_zero, x.is_finite, x.is_infinite) == kinds
    for bad in (Fraction(-1), Fraction(-1, 3), 0.5, 1):
        with pytest.raises(ValueError):
            ExtendedValue(bad)
    for bad in (-1, "-1/2"):
        with pytest.raises(ValueError):
            _as_x(bad)


def test_state_str_roundtrip():
    for s in ("0", "inf", "3/7", "5"):
        assert str(_as_x(s)) == s


def test_state_fraction_access():
    assert _as_x(0).fraction == 0
    assert _as_x("3/7").fraction == Fraction(3, 7)
    with pytest.raises(OverflowError):
        _as_x("inf").fraction


def _state_by_fraction(s):
    """The state `s` spells, read by Fraction alone: inf for its four
    spellings, after stripping."""
    s = s.strip()
    if s in ("inf", "Inf", "INF", "infinity"):
        return ExtendedValue(None)
    return ExtendedValue(Fraction(s))


def _outcome(read, s):
    """What `read(s)` gives: its value and the types of it and of any value
    it carries, or its exception's class and message."""
    try:
        v = read(s)
    except Exception as exc:
        return type(exc), str(exc)
    return type(v), v, type(getattr(v, "value", None))


# pieces of the strings Fraction reads and refuses: whitespace, signs and
# leading zeros, slashes, points, exponents and underscores, non-ASCII digits
# (Arabic-Indic three, fullwidth five, superscript two), empty parts, 1/0 and
# the spellings of inf; an exponent has at most 3 digits, as 10**exponent is
# formed in full
_pieces = st.sampled_from([
    "0", "1", "7", "00", "012", "10", "987654321", " ", "\t", "\n", "\u00a0",
    "\u2003", "+", "-", "/", ".", "e", "E", "e-", "_", "\u0663", "\uff15",
    "\u00b2", "1/0", "inf", "Inf", "INF", "infinity", "nan", "x", ""])
_number_strings = st.lists(_pieces, max_size=6).map("".join).filter(
    lambda s: not re.search(r"[eE][-+]?[\d_]{4}", s))


@settings(max_examples=1000, deadline=None)
@given(s=_number_strings)
def test_the_reader_reads_every_string_as_fraction_does(s):
    assert _outcome(_rational, s) == _outcome(Fraction, s)
    assert _outcome(_as_x, s) == _outcome(_state_by_fraction, s)


@pytest.mark.parametrize("s", ["1" * (sys.get_int_max_str_digits() + 1),
                               "1/" + "3" * (sys.get_int_max_str_digits() + 1)])
def test_the_reader_refuses_digits_past_the_int_limit_as_fraction_does(s):
    assert _outcome(_rational, s)[0] is ValueError
    assert _outcome(_rational, s) == _outcome(Fraction, s)
    assert _outcome(_as_x, s) == _outcome(_state_by_fraction, s)


def test_the_exponent_bound_is_the_int_digit_limit():
    """An exponent up to the limit reads as Fraction reads it, with any
    sign, leading zeros or underscores, and one of more digits than the
    limit is refused by Fraction itself; one past the limit is refused; at
    limit 0 no bound applies."""
    limit = sys.get_int_max_str_digits()
    for s in (f"1e{limit}", f" 2.5E-{limit} ", f"1e+00{limit}",
              f"1e{str(limit)[0]}_{str(limit)[1:]}", f"1e{'0' * limit}1",
              f"xe{'0' * limit}1", f"1e{'9' * (limit + 1)}"):
        assert _outcome(_rational, s) == _outcome(Fraction, s)
        assert _outcome(_as_x, s) == _outcome(_state_by_fraction, s)
    for s in (f"1e{limit + 1}", f"1e-{limit + 1}", f"1e{'9' * limit}",
              "1e" + "\u0663" * (len(str(limit)) + 1)):
        with pytest.raises(ValueError, match="exponent"):
            _rational(s)
    try:
        sys.set_int_max_str_digits(0)
        assert _rational(f"1e-{limit + 1}") == Fraction(1, 10**(limit + 1))
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("big", ["1e10000000", "1E-0099999999"])
def test_a_huge_exponent_is_refused_at_once(big, tmp_path, capsys):
    """As a state, a strike and a state in a CLI tree; the state is refused
    within a second, before Fraction would form 10**exponent."""
    start = time.perf_counter()
    with pytest.raises(StructureError, match="exponent"):
        build_dual_tree(_one_step_doc(xs=("0.3", big)))
    assert time.perf_counter() - start < 1
    with pytest.raises(ConfigError):
        tree_claim(two_period_example(), "call", big)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_one_step_doc(xs=("0.3", big))))
    assert main(["lattice-verify", "--tree", str(path),
                 "--out-dir", str(tmp_path)]) == 1
    assert "exponent" in capsys.readouterr().err


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


def one_step(t, node):
    """Over one step from a finite interior node: the dollar defect
    x - E[x_child], the euro defect 1/x - E[1/x_child], the explosion mass
    (euro measure) and the devaluation mass (dollar measure)."""
    x = node.x.fraction
    d_dollar, d_euro = x, 1 / x
    explosion = devaluation = Fraction(0)
    for b in node.branches:
        cx = t.nodes[b.child].x
        if cx.is_finite:
            d_dollar -= b.q * cx.fraction
            d_euro -= b.q_hat / cx.fraction
        elif cx.is_infinite:
            explosion += b.q_hat
        else:
            devaluation += b.q
    return d_dollar, d_euro, explosion, devaluation


def test_one_step_defects_equal_absorption_masses():
    t = two_period_example()
    for nid in ("r", "dn"):
        d_dollar, d_euro, explosion, devaluation = one_step(t, t.nodes[nid])
        x = t.nodes[nid].x.fraction
        assert d_dollar == x * explosion
        assert d_euro == (1 / x) * devaluation
    _, _, explosion, devaluation = one_step(t, t.nodes["r"])
    assert explosion == Fraction(1, 2)
    assert devaluation == 0


def test_random_trees_satisfy_duality_defects():
    for seed in range(40):
        t = random_dual_tree(seed)
        for node in t.nodes.values():
            if node.x.is_finite and not node.is_terminal:
                d_dollar, d_euro, explosion, devaluation = one_step(t, node)
                x = node.x.fraction
                assert d_dollar == x * explosion
                assert d_euro == (1 / x) * devaluation


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
    assert period_rule(t, 1) == {"up", "dn"}
    stop_map(t, period_rule(t, 1))      # a valid rule passes
    hit = first_hit_rule(t, lambda n: n.x.is_infinite)
    assert hit == {"up", "dn_up", "dn_dn"}
    with pytest.raises(MeasurabilityError):
        stop_map(t, {"up"})          # does not cover all paths
    with pytest.raises(MeasurabilityError):
        stop_map(t, {"r", "dn"})     # crossed twice
    with pytest.raises(MeasurabilityError):
        period_rule(t, 9)


@pytest.mark.parametrize("rule, message", [
    ({"r", "dn"}, "path to 'dn' crosses the stopping rule twice"),
    ({"up"}, "path to 'dn_up' never crosses the stopping rule"),
    # both defects: the first node in tree order is named
    ({"dn", "dn_dn"}, "path to 'up~2' never crosses the stopping rule"),
])
def test_stop_map_refusals_name_the_first_bad_node(rule, message):
    with pytest.raises(MeasurabilityError, match=f"^{re.escape(message)}$"):
        stop_map(two_period_example(), rule)


def test_stop_map_names_the_rule_node_above_each_node():
    t = two_period_example()
    assert stop_map(t, {"up", "dn"}) == {
        "r": None, "up": "up", "up~2": "up",
        "dn": "dn", "dn_up": "dn", "dn_dn": "dn"}
    assert list(stop_map(t, period_rule(t, 2))) == list(t.nodes)


def test_stop_map_is_kept_per_valid_rule():
    t = random_dual_tree(11)
    fresh = build_dual_tree(tree_to_doc(t))
    rules = [period_rule(t, k) for k in range(t.periods + 1)]
    rules.append(first_hit_rule(t, lambda n: not n.x.is_finite))
    for rule in rules:
        kept = stop_map(t, rule)
        assert stop_map(t, set(rule)) is kept
        assert kept == stop_map(fresh, rule)
    # an invalid rule is never kept: it raises on every call
    t = two_period_example()
    for _ in range(2):
        with pytest.raises(MeasurabilityError):
            stop_map(t, {"r", "dn"})
    stop_map(t, period_rule(t, 1))
    stop_map(t, period_rule(t, 2))
    with pytest.raises(MeasurabilityError):
        stop_map(t, {"r", "dn"})
    with pytest.raises(MeasurabilityError):
        verify_numeraire_identity(t, {"r", "dn"}, {"r", "dn"})
    # the event check still runs when the rule's map is kept
    for _ in range(2):
        with pytest.raises(MeasurabilityError):
            verify_numeraire_identity(t, ["dn_dn"], period_rule(t, 1))


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_a_period_rule_keeps_the_map_stop_map_would_form(generate):
    """Every rule builder keeps its map unchecked: period rules, the first-hit
    rule and both rules of `random_rule_pair`.  Each kept map names, for each
    node, the nearest rule node on its parent chain (None above the rule),
    value for value and in tree order."""

    def climb(t, rule, nid):
        while nid is not None and nid not in rule:
            nid = t.nodes[nid].parent
        return nid

    for seed in range(150):
        t = generate(seed, 1 + seed % 6)
        rules = [period_rule(t, k) for k in range(t.periods + 1)]
        rules.append(first_hit_rule(t, lambda n: not n.x.is_finite))
        rules.extend(random_rule_pair(t, seed))
        for rule in rules:
            want = [(nid, climb(t, rule, nid)) for nid in t.nodes]
            assert list(t._stop_maps[rule].items()) == want


@pytest.mark.parametrize("generate", [random_dual_tree,
                                      random_complete_dual_tree])
def test_numerators_leaves_and_supported_set_match_a_fresh_scan(generate):
    for seed in range(300):
        t = generate(seed)
        verify_tree_invariants(t)
        # path probabilities as products of the one-step masses, parents first
        pd, pe = {t.root: 1}, {t.root: 1}
        for n in t.nodes.values():
            for b in n.branches:
                pd[b.child], pe[b.child] = pd[n.id] * b.q, pe[n.id] * b.q_hat
        assert (t.prob_dollar, t.prob_euro) == (pd, pe)
        assert list(t.leaves) == [n.id for n in t.nodes.values()
                                  if n.time_index == t.periods]
        # each numerator over the least common denominator of its kind
        xs = {nid: n.x.value for nid, n in t.nodes.items()}
        finite = [x for x in xs.values() if x]
        assert t.denominators == (
            math.lcm(*[Fraction(v).denominator for v in pd.values()]),
            math.lcm(*[Fraction(v).denominator for v in pe.values()]),
            math.lcm(*[x.denominator for x in finite]),
            math.lcm(*[(1 / x).denominator for x in finite]))
        d_pd, d_pe, d_x, d_inv = t.denominators
        for nid, (n_pd, n_pe, n_x, n_inv) in t.numerators.items():
            x = xs[nid]
            assert (Fraction(n_pd, d_pd), Fraction(n_pe, d_pe)) \
                == (pd[nid], pe[nid])
            assert (None if n_x is None else Fraction(n_x, d_x)) == x
            assert (None if n_inv is None else Fraction(n_inv, d_inv)) == (
                0 if x is None else None if x == 0 else 1 / x)
        assert t.supported == {nid for nid in t.nodes
                               if t.prob_dollar[nid] > 0
                               or t.prob_euro[nid] > 0}


def test_invariants_require_parents_first():
    t = two_period_example()
    verify_tree_invariants(t)
    reordered = dict(reversed(t.nodes.items()))
    # a built tree is frozen: a changed one is a new record
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.nodes = reordered
    children_first = dataclasses.replace(t, nodes=reordered)
    with pytest.raises(StructureError):
        verify_tree_invariants(children_first)


# r at x = 1 branches to a devaluation z (q = 1/4), an explosion e
# (q_hat = 1/4) and a finite a (q = q_hat = 3/4), each carried to period 2
_ORACLE_DOC = {"x0": "1", "periods": 2, "nodes": [
    {"id": "r", "x": "1",
     "branches": [["z", "1/4"], ["e", "1/4"], ["a", "3/4"]]},
    {"id": "z", "x": "0"}, {"id": "e", "x": "inf"},
    {"id": "a", "x": "1", "branches": [["a1", "1"]]}, {"id": "a1", "x": "1"}]}


def _with_node(tree, nid, **changes):
    return dataclasses.replace(tree, nodes={
        **tree.nodes, nid: dataclasses.replace(tree.nodes[nid], **changes)})


def _with_masses(tree, nid, **masses):
    """`nid`'s branches with the (q, q_hat) of each child named in `masses`."""
    return _with_node(tree, nid, branches=tuple(
        Branch(b.child, *masses.get(b.child, (b.q, b.q_hat)))
        for b in tree.nodes[nid].branches))


def _with_numerators(tree, nid, pd, pe):
    return dataclasses.replace(tree, numerators={
        **tree.numerators, nid: (pd, pe, *tree.numerators[nid][2:])})


_Q = Fraction(1, 4)


@pytest.mark.parametrize("tamper, error, fragment", [
    (lambda t: _with_masses(t, "r", z=(_Q + 1, 0)),
     NormalizationError, "node 'r': branch masses sum to (2, 1)"),
    (lambda t: _with_masses(t, "r", z=(0, 0), e=(_Q, _Q)),
     StructureError, "explosion branch from 'r' has q != 0"),
    (lambda t: _with_masses(t, "r", z=(_Q, _Q), e=(0, 0)),
     StructureError, "devaluation branch from 'r' has q_hat != 0"),
    (lambda t: _with_masses(t, "r", e=(0, 2 * _Q), a=(3 * _Q, 2 * _Q)),
     StructureError, "density relation fails on branch 'r' -> 'a'"),
    (lambda t: _with_node(t, "e", branches=2 * (
        Branch("e~2", Fraction(1, 2), Fraction(1, 2)),)),
     StructureError, "absorbing node 'e' must self-chain"),
    (lambda t: _with_node(t, "e~2", x=t.nodes["a1"].x),
     StructureError, "absorbing node 'e' changes state"),
    (lambda t: _with_node(t, "a1", time_index=1),
     StructureError, "terminal node 'a1' at period 1"),
    (lambda t: _with_numerators(t, "e~2", 1, t.numerators["e~2"][1]),
     StructureError, "dollar measure sees explosion at 'e~2'"),
    (lambda t: _with_numerators(t, "z~2", t.numerators["z~2"][0], 1),
     StructureError, "euro measure sees devaluation at 'z~2'"),
], ids=["normalization", "q-into-explosion", "q_hat-into-devaluation",
        "density", "absorbing-branches", "absorbing-state", "short-terminal",
        "dollar-mass-on-explosion", "euro-mass-on-devaluation"])
def test_invariant_oracle_refuses_tampered_trees(tamper, error, fragment):
    """One tampered copy of a built tree per refusal after the parents-first
    check.  Each copy but the first moves mass between branches, so both
    measures still sum to 1 and the normalization check does not fire."""
    tree = build_dual_tree(_ORACLE_DOC)
    verify_tree_invariants(tree)
    with pytest.raises(error, match=re.escape(fragment)):
        verify_tree_invariants(tamper(tree))


def _root_doc(*nodes, branches=(("a", "1"),)):
    """A one-period document: the root r at x = 1 with `branches`, then
    `nodes`."""
    return {"x0": "1", "periods": 1, "nodes": [
        {"id": "r", "x": "1", "branches": [list(b) for b in branches]},
        *nodes]}


_A, _B = {"id": "a", "x": "1"}, {"id": "b", "x": "1"}
# 1e-4300 has a 4,301-digit denominator, past the interpreter's default int
# digit limit, and so has the derived dollar mass 10**4300/2 a child at that
# state gets: str() of either raises ValueError
HUGE_MASS_DOC = _root_doc({"id": "a", "x": "1e-4300"}, dict(_B, x="2"),
                          branches=[("a", "1/2"), ("b", "1/2")])


@pytest.mark.parametrize("doc, rule, error, fragment", [
    (_root_doc(_A, _A), {"r"}, StructureError, "duplicate node id 'a'"),
    (_root_doc(_A, branches=[("a", "1/2"), ("a", "1/2")]), {"r"},
     StructureError, "node 'a' reached twice"),
    (_root_doc(dict(_A, branches=[["b", "1"]]), _B), {"r"},
     StructureError, "terminal node 'a' declares branches"),
    (_root_doc(branches=[("c", "1")]), {"r"},
     StructureError, "branch references unknown node 'c'"),
    (_root_doc(_A, _B, branches=[("a", "-1/2"), ("b", "3/2")]), {"r"},
     NormalizationError, "negative branch mass -1/2 to 'a'"),
    (_root_doc(_A), {"r", "nowhere"},
     MeasurabilityError, "unknown nodes in stopping rule: ['nowhere']"),
    ({"x0": "1", "periods": 1,
      "nodes": [dict(_A, id="r", x="1e-4300", branches=[["a", "1"]]), _A]},
     {"r"}, StructureError,
     "node 'r': root state ~1e-4300 disagrees with x0 = 1"),
    (_root_doc(_A, _B, branches=[("a", "-1e-4300"), ("b", "1")]), {"r"},
     NormalizationError, "node 'r': negative branch mass ~-1e-4300 to 'a'"),
    (HUGE_MASS_DOC, {"r"}, NormalizationError,
     "node 'r': derived dollar-measure masses sum to ~5e+4299, not 1"),
], ids=["duplicate-id", "reached-twice", "terminal-branches",
        "unknown-child", "negative-mass", "unknown-rule-node",
        "huge-root-state", "huge-negative-mass", "huge-normalization"])
def test_builder_refusals_name_the_node(doc, rule, error, fragment):
    """One minimal document or stopping rule per refusal of the build walk
    and of `stop_map`; the root alone is a valid rule on any tree.  A number
    whose digits str() refuses is shown rounded in the refusal."""
    with pytest.raises(error, match=re.escape(fragment)):
        stop_map(build_dual_tree(doc), rule)


def _absorbing_pair(periods):
    """A root with one exploded and one devalued child."""
    return {"x0": "1", "periods": periods, "nodes": [
        {"id": "r", "x": "1", "branches": [["u", "1"], ["d", "1"]]},
        {"id": "u", "x": "inf"}, {"id": "d", "x": "0"}]}


def test_absorption_chains_are_bounded():
    # each child's chain adds periods - 1 nodes
    half = MAX_CHAIN_NODES // 2
    t = build_dual_tree(_absorbing_pair(half + 1))
    assert len(t.nodes) == 3 + MAX_CHAIN_NODES
    with pytest.raises(StructureError, match="would add more than"):
        build_dual_tree(_absorbing_pair(half + 2))
    with pytest.raises(StructureError, match="would add more than"):
        build_dual_tree(_absorbing_pair(10**9))


@pytest.mark.parametrize("x", ["inf", "0"])
def test_absorbing_root_is_refused_before_chaining(x):
    with pytest.raises(StructureError,
                       match=f"root state {x} disagrees with x0 = 1"):
        build_dual_tree({"x0": "1", "periods": 10**9,
                         "nodes": [{"id": "r", "x": x}]})


def chain_doc(periods: int, explode_last: bool = False) -> dict:
    """n0 -> n1 -> ... -> n<periods>, one branch per node, all at x = 1; the
    last step may instead explode with euro mass 1/2 (n<periods> at 1/2)."""
    nodes = [{"id": f"n{k}", "x": "1", "branches": [[f"n{k + 1}", "1"]]}
             for k in range(periods)]
    nodes.append({"id": f"n{periods}", "x": "1"})
    if explode_last:
        nodes[-2]["branches"] = [[f"n{periods}", "1/2"], ["e", "1/2"]]
        nodes[-1]["x"] = "1/2"
        nodes.append({"id": "e", "x": "inf"})
    return {"x0": "1", "periods": periods, "nodes": nodes}


def test_long_chains_build_in_order():
    t = build_dual_tree(chain_doc(5000))
    assert list(t.nodes) == [f"n{k}" for k in range(5001)]
    assert set(t.prob_dollar.values()) == set(t.prob_euro.values()) == {1}
    rho, tau = random_rule_pair(t, 3)
    assert len(rho) == len(tau) == 1
    t = build_dual_tree(chain_doc(5000, explode_last=True))
    assert list(t.nodes)[-3:] == ["n4999", "n5000", "e"]
    assert t.prob_euro["e"] == t.prob_euro["n5000"] == Fraction(1, 2)
    assert t.prob_dollar["n5000"] == 1
    random_rule_pair(t, 3)


def collision_doc(chain_first: bool) -> dict:
    """The exploded node e's chain would generate the id e~2, which a
    sibling of e already has."""
    branches = [["e", "1/2"], ["e~2", "1/2"]]
    return {"x0": "1", "periods": 2, "nodes": [
        {"id": "r", "x": "1",
         "branches": branches if chain_first else branches[::-1]},
        {"id": "e", "x": "inf"},
        {"id": "e~2", "x": "1/2", "branches": [["g", "1"]]},
        {"id": "g", "x": "1/2"}]}


@pytest.mark.parametrize("chain_first", [True, False])
def test_document_ids_equal_to_chain_ids_are_refused(chain_first):
    with pytest.raises(StructureError,
                       match="absorption id collision at 'e~2'"):
        build_dual_tree(collision_doc(chain_first))


# ---------------------------------------------------------------------------
# fuzzing: any JSON-shaped document either builds or raises a DualFXError
# ---------------------------------------------------------------------------

# an absorbing node grows a chain to the horizon, bounded by MAX_CHAIN_NODES
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.integers(0, 10**12),
    st.floats(-3, 10), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(alphabet="/-.aefinx ~", max_size=5))
_json = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "x", "branches", "a"]), inner,
                      max_size=3),
    max_leaves=6)
_ids = st.one_of(st.sampled_from(["r", "a", "b", "c", "a~2", "r~1"]), _json)
_numbers = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "2", "3/2", "inf", "-1",
                     "1/0", " inf ", "x"]), _json)
_branches = st.one_of(
    st.lists(st.tuples(_ids, _numbers).map(list), max_size=3), _json)
_entries = st.one_of(
    st.fixed_dictionaries({"id": _ids, "x": _numbers},
                          optional={"branches": _branches}), _json)
_docs = st.one_of(
    st.fixed_dictionaries(
        {"x0": _numbers, "periods": st.one_of(st.integers(-1, 4), _scalars),
         "nodes": st.one_of(st.lists(_entries, max_size=6), _json)},
        optional={"root": _ids}),
    _json)


@st.composite
def _mutated_docs(draw):
    """A valid tree's document with one value replaced."""
    doc = tree_to_doc(random_dual_tree(draw(st.integers(0, 200)), 3))
    where = draw(st.sampled_from(["x0", "periods", "root", "node"]))
    if where != "node":
        doc[where] = draw(_numbers if where == "x0" else _scalars)
        return doc
    entry = draw(st.sampled_from(doc["nodes"]))
    key = draw(st.sampled_from(["id", "x", "branches"]))
    if key == "branches" and entry.get("branches") and draw(st.booleans()):
        branch = draw(st.sampled_from(entry["branches"]))
        branch[draw(st.integers(0, 1))] = draw(_numbers)
    else:
        entry[key] = draw({"id": _ids, "x": _numbers,
                           "branches": _branches}[key])
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_docs, _mutated_docs()))
def test_any_document_builds_or_raises_a_package_error(doc):
    try:
        tree = build_dual_tree(doc)
    except DualFXError:
        return
    verify_tree_invariants(tree)
    # invariants local to each node miss a node made twice; the masses and
    # the forward's price see it
    assert sum(tree.prob_dollar[nid] for nid in tree.leaves) == 1
    assert sum(tree.prob_euro[nid] for nid in tree.leaves) == 1
    assert price_on_tree(tree, tree_euro_forward(tree)).total_dollar == tree.x0
