"""Finite multi-period trees carrying the dollar/euro measure pair exactly.

Every node holds an exchange-rate state on [0, inf] and each branch carries a
pair of rational one-step probabilities (q, q_hat), one per measure.  The two
measures are tied together branch by branch through the density relation

    q * x_child = q_hat * x_node      (finite children),

which makes the change-of-numeraire identities structural: branches into an
exploded state are invisible to the dollar measure (q = 0) and branches into a
devalued state are invisible to the euro measure (q_hat = 0).  The modeler
supplies q_hat on nonzero children and q on zero children; q on finite
children is derived.  All arithmetic is exact.  The walk that builds a tree
records each node's Q$ mass, Qe mass, state x and reciprocal 1/x as integer
numerators over four per-tree denominators (D$, De, Dx, D1/x), so the checks
and pricers sum and compare plain ints and form one Fraction per result.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from ..errors import MeasurabilityError, NormalizationError, StructureError

ZERO, ONE = Fraction(0), Fraction(1)
MAX_CHAIN_NODES = 20_000    # most nodes one document's absorption chains add
_INF_SPELLINGS = ("inf", "Inf", "INF", "infinity")
# the decimal exponent at the end of a str, as Fraction's grammar spells it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


@dataclass(frozen=True)
class Branch:
    child: str
    q: Fraction        # one-step probability under the dollar measure
    q_hat: Fraction    # one-step probability under the euro measure


@dataclass(frozen=True)
class ExtendedValue:
    """A point of the extended half line [0, inf], where the exchange rate
    at a node lives: a Fraction >= 0, or None for inf.  0 is a devaluation
    and inf an explosion."""

    value: Fraction | None

    def __post_init__(self):
        v = self.value
        if v is not None and not (type(v) is Fraction and v.numerator >= 0):
            raise ValueError(f"an extended value is a Fraction >= 0 or None, "
                             f"not {v!r}")

    # the predicates read None and the numerator: no Fraction comparison
    @property
    def is_zero(self) -> bool:
        return self.value is not None and self.value.numerator == 0

    @property
    def is_finite(self) -> bool:
        return self.value is not None and self.value.numerator != 0

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def fraction(self) -> Fraction:
        """Exact rational value; infinite raises."""
        if self.value is None:
            raise OverflowError("infinite value has no rational representation")
        return self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


@dataclass(frozen=True)
class TreeNode:
    id: str
    time_index: int
    x: ExtendedValue
    branches: tuple[Branch, ...] = ()
    parent: str | None = None

    @property
    def is_terminal(self) -> bool:
        return not self.branches


class TerminalLaw(NamedTuple):
    """A terminal law in integers over (D$, De, Dx, D1/x): from the state 0
    up, one row per leaf at x > 0, the rows (x, Q$, Q$ x, Qe, Qe / x) of the
    running sums over the states at or below x, and the Qe mass at inf."""

    x0: Fraction
    denominators: tuple[int, int, int, int]
    rows: list[tuple[int, int, int, int, int]]
    exploded: int


def terminal_law(tree) -> TerminalLaw:
    """The `TerminalLaw` of a tree, or of anything with its leaves, their
    numerators, the denominators and x0."""
    leaves = [tree.numerators[nid] for nid in tree.leaves]
    rows = [(0, sum([n[0] for n in leaves if n[2] == 0]), 0, 0, 0)]
    for pd, pe, x, inv in sorted([n for n in leaves if n[2]],
                                 key=lambda n: n[2]):
        _, a, b, c, d = rows[-1]
        rows.append((x, a + pd, b + pd * x, c + pe, d + pe * inv))
    return TerminalLaw(tree.x0, tree.denominators, rows,
                       sum([n[1] for n in leaves if n[2] is None]))


@dataclass(frozen=True)
class DualTree:
    """A finished tree, as `build_dual_tree` returns it: its nodes, their
    integer numerators, the leaves and the supported set are all recorded by
    the walk that builds it.  Fields cannot be reassigned; the exact path
    probabilities `prob_dollar` and `prob_euro` and the terminal `law` are
    formed from the numerators on first use, and the per-rule cache of
    `stop_map` fills in after the build."""

    periods: int
    x0: Fraction
    root: str
    # parents first, in branch order: every pass over the tree runs over
    # nodes.values(), forward or reversed
    nodes: dict[str, TreeNode]
    # per node (Q$ mass, Qe mass, x, 1/x) as numerators over `denominators`;
    # x is None where it is inf, 1/x None where x is 0
    numerators: dict[str, tuple[int, int, int | None, int | None]]
    denominators: tuple[int, int, int, int]     # (D$, De, Dx, D1/x)
    leaves: tuple[str, ...]     # the leaf ids, in tree order
    supported: frozenset[str]   # nodes with positive mass under either measure
    # the stopping rules' maps, by rule; only valid rules are kept
    _stop_maps: dict[frozenset[str], dict[str, str | None]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def prob_dollar(self) -> dict[str, Fraction]:
        """Exact Q$ path probability of the cylinder at each node."""
        return {nid: _ratio(n[0], self.denominators[0])
                for nid, n in self.numerators.items()}

    @cached_property
    def prob_euro(self) -> dict[str, Fraction]:
        """Exact Qe path probability of the cylinder at each node."""
        return {nid: _ratio(n[1], self.denominators[1])
                for nid, n in self.numerators.items()}

    law = cached_property(terminal_law)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _over_lcm(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator,
    and that denominator (1 for no values)."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _ratio(n: int, d: int) -> Fraction:
    """n/d as a Fraction, the shared ZERO when n is 0."""
    return Fraction(n, d) if n else ZERO


def _shown(v) -> str:
    """str(v), or v rounded where the int digit limit refuses its digits."""
    try:
        return str(v)
    except ValueError:
        f = getattr(v, "value", v)      # an ExtendedValue's rational, or v
        e = math.log10(abs(f.numerator)) - math.log10(f.denominator)
        return f"~{'-' * (f < 0)}{10 ** (e % 1):.6g}e{math.floor(e):+d}"


def _rational(v) -> Fraction:
    """A document number, exactly: a Fraction as it is, a str as Fraction
    reads it (plain ASCII "n" or "p/q" by int()), an int, or a float by its
    shortest str (0.1 is 1/10, not its binary value); a bool raises
    TypeError.  A str whose decimal exponent is past
    `sys.get_int_max_str_digits()` (no bound at 0) raises ValueError before
    Fraction forms 10**exponent in full."""
    if type(v) is Fraction:
        return v
    if type(v) is str:
        if v.isascii():
            n, slash, d = v.partition("/")
            if n.isdigit() and (d.isdigit() or not slash):
                return Fraction(int(n), int(d)) if slash else Fraction(int(n))
        # Fraction itself refuses an exponent of more digits than the limit
        e, limit = _EXPONENT.search(v), sys.get_int_max_str_digits()
        if e and limit and (sum(map(str.isdecimal, e[1])) <= limit
                            < abs(int(e[1]))):
            raise ValueError(
                f"the exponent of {v!r} is past the int digit limit {limit}")
    elif isinstance(v, bool):
        raise TypeError(f"a bool is not a number: {v!r}")
    return Fraction(str(v) if isinstance(v, float) else v)


def _as_x(x) -> ExtendedValue:
    """A state: a str that, stripped, spells inf, else `_rational` of it."""
    if isinstance(x, str) and (x := x.strip()) in _INF_SPELLINGS:
        return ExtendedValue(None)
    return ExtendedValue(_rational(x))


def _read_once(read):
    """`read`, reading each distinct str once per function returned; other
    arguments (a bool, an int, a float) are read afresh each time."""
    seen = {}
    return lambda v: (read(v) if type(v) is not str else seen[v] if v in seen
                      else seen.setdefault(v, read(v)))


def build_dual_tree(doc: Mapping) -> DualTree:
    """Build a finished DualTree from a node-list document in one walk.

    Document keys: "x0" (positive rational), "periods" (int >= 1), "root"
    (node id, optional when the first node is the root) and "nodes", a list of
    {"id", "x", "branches": [[child_id, mass], ...]}.  The mass of a branch is
    q_hat when the child state is nonzero and q when the child state is zero.
    Every number, x0, periods, a state or a mass, is read exactly by
    `_rational`, which reads any string Fraction reads whose exponent is
    within the int digit limit, an int or a float, never a bool; a state may
    also spell inf (`_as_x`).  Absorbing states must not declare branches;
    their absorption chains up to the horizon, MAX_CHAIN_NODES nodes at
    most, are generated automatically, with ids "<id>~<k>" for period k.
    Those ids are reserved: a document id equal to one is refused.  A
    document of any depth builds within the chain bound: the walk is
    iterative.  The walk refuses, as it makes each node, every document that
    breaks an invariant of the measure pair, and the integer numerators are
    formed from the masses it records.  Each distinct state or mass string
    is read once per call (`_read_once`).
    """
    try:
        x0 = _rational(doc["x0"])
        periods = _rational(doc["periods"])
        raw = list(doc["nodes"])
        by_id: dict[str, Mapping] = {}
        for entry in raw:
            nid = str(entry["id"])
            if nid in by_id:
                raise StructureError(f"duplicate node id {nid!r}")
            by_id[nid] = entry
        if x0 <= 0:
            raise StructureError("x0 must be positive")
        if periods.denominator != 1 or periods < 1:
            raise StructureError(
                f"periods must be an integer >= 1, not {doc['periods']!r}")
        periods = int(periods)
        if not raw:
            raise StructureError("empty node list")
        root_id = str(doc.get("root", raw[0]["id"]))
        if root_id not in by_id:
            raise StructureError(f"root {root_id!r} not among nodes")

        nodes: dict[str, TreeNode] = {}
        # each node's Q$ and Qe masses as reduced (numerator, denominator) pairs
        masses = {root_id: (1, 1, 1, 1)}
        leaves: list[str] = []
        chained = 0     # nodes the absorption chains have added so far
        as_x, rational = _read_once(_as_x), _read_once(_rational)
        root_x = as_x(by_id[root_id]["x"])
        # checked before the walk, so an absorbing root is never chained out
        if not (root_x.is_finite and root_x.fraction == x0):
            raise StructureError(f"node {root_id!r}: root state {_shown(root_x)}"
                                 f" disagrees with x0 = {_shown(x0)}")
        states = {root_id: root_x.value.as_integer_ratio()}  # None at inf
        # pre-order: each popped node is made once, with its final branches,
        # and its children are pushed reversed so they are made in branch order
        stack: list[tuple[str, int, str | None, ExtendedValue]] = [
            (root_id, 0, None, root_x)]
        while stack:
            nid, t, parent, x = stack.pop()
            if nid in nodes:
                raise StructureError(
                    f"node {nid!r} reached twice; specs must be trees")
            declared = by_id[nid].get("branches") or []
            state = states[nid]
            if state is None or not state[0]:
                if declared:
                    raise StructureError(f"node {nid!r} is absorbing ({x}); "
                                         "it must not declare branches")
                chained += periods - t
                if chained > MAX_CHAIN_NODES:
                    raise StructureError(
                        f"absorption chains up to period {periods} would add "
                        f"more than {MAX_CHAIN_NODES} nodes")
                # the forced self-chain of the absorbed state to the horizon
                prev = nid
                for k in range(t + 1, periods + 1):
                    cid = f"{nid}~{k}"
                    if cid in by_id:
                        raise StructureError(f"absorption id collision at {cid!r}")
                    nodes[prev] = TreeNode(prev, k - 1, x,
                                           (Branch(cid, ONE, ONE),), parent)
                    masses[cid], states[cid] = masses[nid], state
                    prev, parent = cid, prev
                nodes[prev] = TreeNode(prev, periods, x, (), parent)
                leaves.append(prev)
                continue
            if t == periods:
                if declared:
                    raise StructureError(f"terminal node {nid!r} declares branches")
                nodes[nid] = TreeNode(nid, t, x, (), parent)
                leaves.append(nid)
                continue
            if not declared:
                raise StructureError(
                    f"finite node {nid!r} at period {t} < {periods} has no branches")
            pdn, pdd, pen, ped = masses[nid]
            branches, children = [], []
            ens, eds, dns, dds = 0, 1, 0, 1  # sum q_hat, sum q over their lcms
            for child_id, mass in declared:
                child_id = str(child_id)
                child_entry = by_id.get(child_id)
                if child_entry is None:
                    raise StructureError(
                        f"branch references unknown node {child_id!r}")
                cx = as_x(child_entry["x"])
                m = rational(mass)
                mn, md = m.as_integer_ratio()
                if mn < 0:
                    raise NormalizationError(f"node {nid!r}: negative branch "
                                             f"mass {_shown(m)} to {child_id!r}")
                c = states[child_id] = (None if cx.value is None
                                        else cx.value.as_integer_ratio())
                if c is None:
                    q, q_hat, qn, qd, hn, hd = ZERO, m, 0, 1, mn, md
                elif not c[0]:
                    q, q_hat, qn, qd, hn, hd = m, ZERO, mn, md, 0, 1
                else:   # density relation: q * x_child = q_hat * x_node
                    qn, qd = mn * state[0] * c[1], md * state[1] * c[0]
                    q, q_hat, hn, hd = Fraction(qn, qd), m, mn, md
                branches.append(Branch(child_id, q, q_hat))
                children.append((child_id, t + 1, nid, cx))
                l, k = math.lcm(eds, hd), math.lcm(dds, qd)
                ens, eds = ens * (l // eds) + hn * (l // hd), l
                dns, dds = dns * (k // dds) + qn * (k // qd), k
                dn, dd, en, ed = pdn * qn, pdd * qd, pen * hn, ped * hd
                g, h = math.gcd(dn, dd), math.gcd(en, ed)
                masses[child_id] = (dn // g, dd // g, en // h, ed // h)
            # a derived dollar sum off 1 breaks the martingale constraint
            for measure, n, d in (("euro", ens, eds),
                                  ("derived dollar", dns, dds)):
                if n != d:
                    raise NormalizationError(
                        f"node {nid!r}: {measure}-measure masses sum to "
                        f"{_shown(Fraction(n, d))}, not 1")
            nodes[nid] = TreeNode(nid, t, x, tuple(branches), parent)
            stack.extend(reversed(children))
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise StructureError(f"malformed tree document: {exc!r}") from exc
    orphans = by_id.keys() - nodes.keys()
    if orphans:
        raise StructureError(f"nodes unreachable from the root: {sorted(orphans)}")

    # the per-tree denominators, then every node's numerators over them
    finite = [f for f in states.values() if f and f[0]]
    dens = (math.lcm(*[m[1] for m in masses.values()]),
            math.lcm(*[m[3] for m in masses.values()]),
            math.lcm(*[d for _, d in finite]), math.lcm(*[n for n, _ in finite]))
    numerators = {}
    for nid in nodes:
        pdn, pdd, pen, ped = masses[nid]
        f = states[nid]
        numerators[nid] = (pdn * (dens[0] // pdd), pen * (dens[1] // ped),
                           *((None, 0) if f is None else (0, None) if not f[0]
                             else (f[0] * (dens[2] // f[1]),
                                   f[1] * (dens[3] // f[0]))))
    supported = frozenset(nid for nid, (pd, pe, *_) in numerators.items()
                          if pd or pe)
    return DualTree(periods, x0, root_id, nodes, numerators, dens,
                    tuple(leaves), supported)


def verify_tree_invariants(tree: DualTree) -> None:
    """Assert every structural invariant of the measure pair, exactly, from
    the nodes' states and branches: an oracle independent of the build walk
    but for the absorbed-leaf checks, which read its numerators' masses."""
    seen: set[str] = set()
    for node in tree.nodes.values():
        if node.parent is not None and node.parent not in seen:
            raise StructureError(f"node {node.id!r} is listed before its parent")
        seen.add(node.id)
        if node.is_terminal:
            if node.time_index != tree.periods:
                raise StructureError(
                    f"terminal node {node.id!r} at period {node.time_index}")
            # paths touching an absorbed state are null for the blind
            # measure; the self-chains checked below carry that state here
            if node.x.is_infinite and tree.prob_dollar[node.id] != 0:
                raise StructureError(f"dollar measure sees explosion at {node.id!r}")
            if node.x.is_zero and tree.prob_euro[node.id] != 0:
                raise StructureError(f"euro measure sees devaluation at {node.id!r}")
            continue
        qs = sum((b.q for b in node.branches), Fraction(0))
        q_hats = sum((b.q_hat for b in node.branches), Fraction(0))
        if qs != 1 or q_hats != 1:
            raise NormalizationError(
                f"node {node.id!r}: branch masses sum to ({qs}, {q_hats})")
        if not node.x.is_finite:
            if len(node.branches) != 1:
                raise StructureError(f"absorbing node {node.id!r} must self-chain")
            child = tree.nodes[node.branches[0].child]
            if child.x != node.x:
                raise StructureError(f"absorbing node {node.id!r} changes state")
            continue
        x = node.x.fraction
        for b in node.branches:
            cx = tree.nodes[b.child].x
            if cx.is_infinite and b.q != 0:
                raise StructureError(f"explosion branch from {node.id!r} has q != 0")
            if cx.is_zero and b.q_hat != 0:
                raise StructureError(f"devaluation branch from {node.id!r} has q_hat != 0")
            if cx.is_finite and b.q * cx.fraction != b.q_hat * x:
                raise StructureError(
                    f"density relation fails on branch {node.id!r} -> {b.child!r}")


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------

def _first_stops(tree: DualTree, stops) -> frozenset[str]:
    """The rule that stops each path at its first node where stops(node)
    holds, asking `stops` only about nodes above the rule, in tree order.
    Its map (None above it, else the rule node at or above) is kept."""
    at: dict[str, str | None] = {}
    get, rule = at.get, []
    for nid, node in tree.nodes.items():
        above = get(node.parent)
        if above is None and stops(node):
            above = nid
            rule.append(nid)
        at[nid] = above
    stop = frozenset(rule)
    tree._stop_maps.setdefault(stop, at)
    return stop


def stop_map(tree: DualTree, rule: Iterable[str]) -> dict[str, str | None]:
    """The rule node at or above each node (None above the rule), in tree order.

    Raises MeasurabilityError unless `rule` is a stopping rule: an antichain
    of nodes met exactly once by every path.  The map of a valid rule is
    computed once per tree and shared by every caller, read-only.
    """
    stop = frozenset(rule)
    if stop in tree._stop_maps:
        return tree._stop_maps[stop]
    unknown = stop - tree.nodes.keys()
    if unknown:
        raise MeasurabilityError(f"unknown nodes in stopping rule: {sorted(unknown)}")
    # stopping in the rule, else at a leaf, finds the rule iff it is valid;
    # else the first node in one set only is crossed twice or never
    found = _first_stops(tree, lambda n: n.id in stop or n.is_terminal)
    if found != stop:
        nid = next(n for n in tree.nodes if (n in stop) != (n in found))
        raise MeasurabilityError(f"path to {nid!r} crosses the stopping rule twice"
                                 if nid in stop else
                                 f"path to {nid!r} never crosses the stopping rule")
    return tree._stop_maps[stop]


def period_rule(tree: DualTree, t: int) -> frozenset[str]:
    """Deterministic rule: stop at period t.  Absorbed states chain to the
    horizon, so every path meets t once."""
    if not 0 <= t <= tree.periods:
        raise MeasurabilityError(f"period {t} outside [0, {tree.periods}]")
    return _first_stops(tree, lambda n: n.time_index == t)


def first_hit_rule(tree: DualTree, predicate) -> frozenset[str]:
    """Stop at the first node satisfying predicate(node), else at the leaf."""
    return _first_stops(tree, lambda n: predicate(n) or n.is_terminal)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def tree_to_doc(tree: DualTree) -> dict:
    """Canonical document form, absorption chains omitted (re-created on
    load); a number past the int digit limit raises StructureError."""
    nodes = []
    for node in sorted(tree.nodes.values(), key=lambda n: (n.time_index, n.id)):
        if node.parent is not None and not tree.nodes[node.parent].x.is_finite:
            continue
        try:    # x0 is the root's state, so it is written if the root is
            entry: dict = {"id": node.id, "x": str(node.x)}
            if node.branches and node.x.is_finite:
                entry["branches"] = [
                    [b.child, str(b.q if tree.nodes[b.child].x.is_zero
                                  else b.q_hat)] for b in node.branches]
        except ValueError:
            raise StructureError(f"node {node.id!r} has a number past the "
                                 f"int digit limit") from None
        nodes.append(entry)
    return {"x0": str(tree.x0), "periods": tree.periods,
            "root": tree.root, "nodes": nodes}


def read_json(path, error: type[Exception]):
    """The document in the JSON file at `path`; `error` where json cannot
    read it: a syntax error, bytes not UTF-8, an int literal past the
    interpreter's digit limit, nesting past the recursion limit."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path} is not readable JSON: {exc}") from None


def load_tree(path) -> DualTree:
    return build_dual_tree(read_json(path, StructureError))


def dump_tree(tree: DualTree, path) -> None:
    doc = tree_to_doc(tree)     # before the file opens: a refusal writes none
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def two_period_example() -> DualTree:
    """The hand-checkable two-period tree: x0 = 1, X halves or explodes.

    Under the dollar measure the rate moves deterministically 1 -> 1/2 -> 1/4;
    under the euro measure each step explodes with probability 1/2.
    """
    return build_dual_tree({
        "x0": "1", "periods": 2, "root": "r",
        "nodes": [
            {"id": "r", "x": "1",
             "branches": [["up", "1/2"], ["dn", "1/2"]]},
            {"id": "up", "x": "inf"},
            {"id": "dn", "x": "1/2",
             "branches": [["dn_up", "1/2"], ["dn_dn", "1/2"]]},
            {"id": "dn_up", "x": "inf"},
            {"id": "dn_dn", "x": "1/4"},
        ],
    })
