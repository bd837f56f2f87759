"""Finite multi-period trees carrying the dollar/euro measure pair exactly.

Every node holds an exchange-rate state on [0, inf] and each branch carries a
pair of rational one-step probabilities (q, q_hat), one per measure.  The two
measures are tied together branch by branch through the density relation

    q * x_child = q_hat * x_node      (finite children),

which makes the change-of-numeraire identities structural: branches into an
exploded state are invisible to the dollar measure (q = 0) and branches into a
devalued state are invisible to the euro measure (q_hat = 0).  The modeler
supplies q_hat on nonzero children and q on zero children; q on finite
children is derived.  All arithmetic is exact (fractions.Fraction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from ..errors import MeasurabilityError, NormalizationError, StructureError
from ..extended import ExtendedValue

ONE = Fraction(1)


@dataclass(frozen=True)
class Branch:
    child: str
    q: Fraction        # one-step probability under the dollar measure
    q_hat: Fraction    # one-step probability under the euro measure


@dataclass
class TreeNode:
    id: str
    time_index: int
    x: ExtendedValue
    branches: tuple[Branch, ...] = ()
    parent: str | None = None

    @property
    def is_terminal(self) -> bool:
        return not self.branches


@dataclass
class DualTree:
    periods: int
    x0: Fraction
    root: str
    # parents first, in branch order: every pass over the tree runs over
    # nodes.values(), forward or reversed
    nodes: dict[str, TreeNode]
    # exact path probabilities of the cylinder at each node, per measure
    prob_dollar: dict[str, Fraction] = field(default_factory=dict)
    prob_euro: dict[str, Fraction] = field(default_factory=dict)

    def node(self, node_id: str) -> TreeNode:
        return self.nodes[node_id]

    def nodes_at(self, t: int) -> list[TreeNode]:
        return [n for n in self.nodes.values() if n.time_index == t]

    def leaves(self) -> list[TreeNode]:
        return self.nodes_at(self.periods)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _as_mass(m) -> Fraction:
    f = Fraction(m)
    if f < 0:
        raise NormalizationError(f"negative branch mass {f}")
    return f


def _as_x(x) -> ExtendedValue:
    if isinstance(x, ExtendedValue):
        return x
    if isinstance(x, str):
        return ExtendedValue.parse(x)
    return ExtendedValue.of(Fraction(x))


def build_dual_tree(doc: Mapping) -> DualTree:
    """Build and validate a DualTree from a node-list document.

    Document keys: "x0" (positive rational), "periods" (int >= 1), "root"
    (node id, optional when the first node is the root) and "nodes", a list of
    {"id", "x", "branches": [[child_id, mass], ...]}.  The mass of a branch is
    q_hat when the child state is nonzero and q when the child state is zero.
    Absorbing states must not declare branches; their absorption chains up to
    the horizon are generated automatically.
    """
    try:
        x0 = Fraction(doc["x0"])
        periods = int(doc["periods"])
        raw = list(doc["nodes"])
        by_id: dict[str, Mapping] = {}
        for entry in raw:
            nid = str(entry["id"])
            if nid in by_id:
                raise StructureError(f"duplicate node id {nid!r}")
            by_id[nid] = entry
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise StructureError(f"malformed tree document: {exc!r}") from exc
    if x0 <= 0:
        raise StructureError("x0 must be positive")
    if periods < 1:
        raise StructureError("periods must be >= 1")
    if not raw:
        raise StructureError("empty node list")
    root_id = str(doc.get("root", raw[0]["id"]))
    if root_id not in by_id:
        raise StructureError(f"root {root_id!r} not among nodes")

    nodes: dict[str, TreeNode] = {}
    seen: set[str] = set()

    def build(nid: str, t: int, parent: str | None) -> None:
        if nid in seen:
            raise StructureError(f"node {nid!r} reached twice; specs must be trees")
        seen.add(nid)
        entry = by_id.get(nid)
        if entry is None:
            raise StructureError(f"branch references unknown node {nid!r}")
        x = _as_x(entry["x"])
        declared = entry.get("branches") or []
        if not x.is_finite:
            if declared:
                raise StructureError(
                    f"node {nid!r} is absorbing ({x}); it must not declare branches")
            nodes[nid] = TreeNode(nid, t, x, (), parent)
            _extend_absorbing(nodes, nid, t, x, periods)
            return
        if t == periods:
            if declared:
                raise StructureError(f"terminal node {nid!r} declares branches")
            nodes[nid] = TreeNode(nid, t, x, (), parent)
            return
        if not declared:
            raise StructureError(
                f"finite node {nid!r} at period {t} < {periods} has no branches")
        branches = []
        q_hat_sum = Fraction(0)
        q_sum = Fraction(0)
        for child_id, mass in declared:
            child_id = str(child_id)
            child_entry = by_id.get(child_id)
            if child_entry is None:
                raise StructureError(f"branch references unknown node {child_id!r}")
            cx = _as_x(child_entry["x"])
            m = _as_mass(mass)
            if cx.is_zero:
                q, q_hat = m, Fraction(0)
            elif cx.is_infinite:
                q, q_hat = Fraction(0), m
            else:
                # density relation: q * x_child = q_hat * x_node
                q, q_hat = m * x.fraction / cx.fraction, m
            q_sum += q
            q_hat_sum += q_hat
            branches.append(Branch(child_id, q, q_hat))
        if q_hat_sum != 1:
            raise NormalizationError(
                f"node {nid!r}: euro-measure masses sum to {q_hat_sum}, not 1")
        if q_sum != 1:
            raise NormalizationError(
                f"node {nid!r}: derived dollar-measure masses sum to {q_sum}, not 1 "
                "(martingale constraint violated)")
        nodes[nid] = TreeNode(nid, t, x, tuple(branches), parent)
        for b in branches:
            build(b.child, t + 1, nid)

    try:
        build(root_id, 0, None)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise StructureError(f"malformed tree document: {exc!r}") from exc
    orphans = set(by_id) - seen
    if orphans:
        raise StructureError(f"nodes unreachable from the root: {sorted(orphans)}")
    root_x = nodes[root_id].x
    if not (root_x.is_finite and root_x.fraction == x0):
        raise StructureError(f"root state {root_x} disagrees with x0 = {x0}")

    tree = DualTree(periods, x0, root_id, nodes)
    _compute_path_probs(tree)
    verify_tree_invariants(tree)
    return tree


def _extend_absorbing(nodes: dict[str, TreeNode], nid: str, t: int,
                      x: ExtendedValue, periods: int) -> None:
    """Append the forced self-chain of an absorbed state down to the horizon."""
    prev = nid
    for k in range(t + 1, periods + 1):
        cid = f"{nid}~{k}"
        if cid in nodes:
            raise StructureError(f"absorption id collision at {cid!r}")
        nodes[prev] = TreeNode(
            nodes[prev].id, nodes[prev].time_index, x,
            (Branch(cid, ONE, ONE),), nodes[prev].parent)
        nodes[cid] = TreeNode(cid, k, x, (), prev)
        prev = cid


def _compute_path_probs(tree: DualTree) -> None:
    tree.prob_dollar[tree.root] = ONE
    tree.prob_euro[tree.root] = ONE
    for node in tree.nodes.values():
        for b in node.branches:
            tree.prob_dollar[b.child] = tree.prob_dollar[node.id] * b.q
            tree.prob_euro[b.child] = tree.prob_euro[node.id] * b.q_hat


def verify_tree_invariants(tree: DualTree) -> None:
    """Assert every structural invariant of the measure pair, exactly."""
    seen: set[str] = set()
    for node in tree.nodes.values():
        if node.parent is not None and node.parent not in seen:
            raise StructureError(f"node {node.id!r} is listed before its parent")
        seen.add(node.id)
        if node.is_terminal:
            if node.time_index != tree.periods:
                raise StructureError(
                    f"terminal node {node.id!r} at period {node.time_index}")
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
    # paths touching an absorbed state are null for the blind measure; the
    # self-chains checked above carry that state to the path's leaf
    for leaf in tree.leaves():
        if leaf.x.is_infinite and tree.prob_dollar[leaf.id] != 0:
            raise StructureError(f"dollar measure sees explosion at {leaf.id!r}")
        if leaf.x.is_zero and tree.prob_euro[leaf.id] != 0:
            raise StructureError(f"euro measure sees devaluation at {leaf.id!r}")


# ---------------------------------------------------------------------------
# supermartingale defects (one-step duality identities)
# ---------------------------------------------------------------------------

def one_step_defects(tree: DualTree, node_id: str) -> tuple[Fraction, Fraction]:
    """(dollar defect of X, euro defect of 1/X) over one step from a finite node.

    The dollar defect x - E[x_child] equals x times the explosion mass seen
    only by the euro measure, and dually for 1/x; both are returned exactly.
    """
    node = tree.nodes[node_id]
    if not node.x.is_finite or node.is_terminal:
        raise StructureError("defects are defined at interior finite nodes")
    x = node.x.fraction
    e_x = sum((b.q * tree.nodes[b.child].x.fraction
               for b in node.branches if tree.nodes[b.child].x.is_finite),
              Fraction(0))
    e_inv = sum((b.q_hat / tree.nodes[b.child].x.fraction
                 for b in node.branches if tree.nodes[b.child].x.is_finite),
                Fraction(0))
    return x - e_x, 1 / x - e_inv


def explosion_mass(tree: DualTree, node_id: str) -> Fraction:
    node = tree.nodes[node_id]
    return sum((b.q_hat for b in node.branches
                if tree.nodes[b.child].x.is_infinite), Fraction(0))


def devaluation_mass(tree: DualTree, node_id: str) -> Fraction:
    node = tree.nodes[node_id]
    return sum((b.q for b in node.branches
                if tree.nodes[b.child].x.is_zero), Fraction(0))


# ---------------------------------------------------------------------------
# stopping rules and events
# ---------------------------------------------------------------------------

def stop_map(tree: DualTree, rule: Iterable[str]) -> dict[str, str | None]:
    """The rule node at or above each node (None above the rule), in tree order.

    Raises MeasurabilityError unless `rule` is a stopping rule: an antichain
    of nodes met exactly once by every path.
    """
    stop = frozenset(rule)
    unknown = stop - tree.nodes.keys()
    if unknown:
        raise MeasurabilityError(f"unknown nodes in stopping rule: {sorted(unknown)}")
    at: dict[str, str | None] = {}
    for node in tree.nodes.values():
        above = at.get(node.parent)
        if node.id in stop:
            if above is not None:
                raise MeasurabilityError(
                    f"path to {node.id!r} crosses the stopping rule twice")
            above = node.id
        elif above is None and node.is_terminal:
            raise MeasurabilityError(
                f"path to {node.id!r} never crosses the stopping rule")
        at[node.id] = above
    return at


def validate_stopping_rule(tree: DualTree, rule: Iterable[str]) -> frozenset[str]:
    """The rule as a frozenset, once `stop_map` has accepted it."""
    stop = frozenset(rule)
    stop_map(tree, stop)
    return stop


def period_rule(tree: DualTree, t: int) -> frozenset[str]:
    """Deterministic rule: stop at period t."""
    if not 0 <= t <= tree.periods:
        raise MeasurabilityError(f"period {t} outside [0, {tree.periods}]")
    return frozenset(n.id for n in tree.nodes_at(t))


def first_hit_rule(tree: DualTree, predicate) -> frozenset[str]:
    """Stop at the first node satisfying predicate(node), else at the leaf."""
    stop: set[str] = set()
    below: set[str] = set()
    for node in tree.nodes.values():
        if node.parent in stop or node.parent in below:
            below.add(node.id)
        elif predicate(node) or node.is_terminal:
            stop.add(node.id)
    return frozenset(stop)


def validate_event(tree: DualTree, rule: frozenset[str],
                   event: Iterable[str]) -> frozenset[str]:
    ev = frozenset(event)
    if not ev <= rule:
        raise MeasurabilityError("event is not determined at the stopping rule")
    return ev


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def tree_to_doc(tree: DualTree) -> dict:
    """Canonical document form; generated absorption chains are omitted and
    re-created on load."""
    nodes = []
    for node in sorted(tree.nodes.values(), key=lambda n: (n.time_index, n.id)):
        if node.parent is not None and not tree.nodes[node.parent].x.is_finite:
            continue
        entry: dict = {"id": node.id, "x": str(node.x)}
        if node.branches and node.x.is_finite:
            out = []
            for b in node.branches:
                cx = tree.nodes[b.child].x
                mass = b.q if cx.is_zero else b.q_hat
                out.append([b.child, str(mass)])
            entry["branches"] = out
        nodes.append(entry)
    return {"x0": str(tree.x0), "periods": tree.periods,
            "root": tree.root, "nodes": nodes}


def load_tree(path) -> DualTree:
    with open(path) as fh:
        return build_dual_tree(json.load(fh))


def dump_tree(tree: DualTree, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_doc(tree), fh, indent=2)


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
