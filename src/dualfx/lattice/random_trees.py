"""Seeded random dual trees, claims and stopping rules for the exact suite.

Two generators are provided.  `random_dual_tree` draws general trees with up
to three supported branches per node; every measure identity holds on them.
`random_complete_dual_tree` draws trees whose nodes carry at most two
supported branches, the discrete complete-market case in which backward
superreplication is tight and reproduces the expectation-formula price.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Collection

from ..extended import ExtendedValue
from .pricing import TreeClaim
from .tree import DualTree, build_dual_tree


def _weights(rng: random.Random, k: int, total: Fraction) -> list[Fraction]:
    """k strictly positive rationals with the given exact sum."""
    w = [rng.randint(1, 6) for _ in range(k)]
    s = sum(w)
    return [total * wi / s for wi in w]


def _split_kinds(rng: random.Random, max_branches: int, allow_explosion: bool,
                 allow_devaluation: bool) -> tuple[int, bool, bool]:
    """(number of finite children, explosion child?, devaluation child?)."""
    while True:
        explode = allow_explosion and rng.random() < 0.35
        devalue = allow_devaluation and rng.random() < 0.30
        cap = max_branches - explode - devalue
        n_fin = rng.randint(0, max(cap, 0))
        supported = n_fin + explode + devalue
        if supported == 0 or supported > max_branches:
            continue
        # q mass must land somewhere (finite or zero child), and q_hat mass
        # must land somewhere (finite or infinite child)
        if n_fin == 0 and not (explode and devalue):
            continue
        return n_fin, explode, devalue


def _grow(rng: random.Random, nodes: list[dict], nid: str, x: Fraction,
          t: int, periods: int, max_branches: int, allow_explosion: bool,
          allow_devaluation: bool) -> None:
    if t == periods:
        nodes.append({"id": nid, "x": str(x)})
        return
    n_fin, explode, devalue = _split_kinds(
        rng, max_branches, allow_explosion, allow_devaluation)
    z = Fraction(0)
    m = Fraction(0)
    if devalue:
        z = Fraction(1) if n_fin == 0 else Fraction(rng.randint(1, 5), rng.randint(6, 12))
    if explode:
        m = Fraction(1) if n_fin == 0 else Fraction(rng.randint(1, 5), rng.randint(6, 12))
    branches = []
    children = []
    if explode:
        cid = f"{nid}e"
        branches.append([cid, str(m)])
        nodes.append({"id": cid, "x": "inf"})
    if devalue:
        cid = f"{nid}z"
        branches.append([cid, str(z)])
        nodes.append({"id": cid, "x": "0"})
    if n_fin:
        while True:
            q_hats = _weights(rng, n_fin, 1 - m)
            qs = _weights(rng, n_fin, 1 - z)
            # density relation pins the child states; distinct states keep the
            # one-step market complete when there are two finite children
            states = [qh * x / q for qh, q in zip(q_hats, qs)]
            if len(set(states)) == n_fin:
                break
        for i, (qh, cx) in enumerate(zip(q_hats, states)):
            cid = f"{nid}f{i}"
            branches.append([cid, str(qh)])
            children.append((cid, cx))
    nodes.append({"id": nid, "x": str(x), "branches": branches})
    for cid, cx in children:
        _grow(rng, nodes, cid, cx, t + 1, periods, max_branches,
              allow_explosion, allow_devaluation)


def random_dual_tree(seed: int, max_periods: int = 4, max_branches: int = 3,
                     allow_explosion: bool = True,
                     allow_devaluation: bool = True) -> DualTree:
    rng = random.Random(seed)
    periods = rng.randint(1, max_periods)
    x0 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    nodes: list[dict] = []
    _grow(rng, nodes, "r", x0, 0, periods, max_branches, allow_explosion,
          allow_devaluation)
    return build_dual_tree({"x0": str(x0), "periods": periods,
                            "root": "r", "nodes": nodes})


def random_complete_dual_tree(seed: int, max_periods: int = 4,
                              allow_explosion: bool = True,
                              allow_devaluation: bool = True) -> DualTree:
    return random_dual_tree(seed, max_periods, max_branches=2,
                            allow_explosion=allow_explosion,
                            allow_devaluation=allow_devaluation)


def random_fraction(rng: random.Random, zero_prob: float = 0.2) -> Fraction:
    if rng.random() < zero_prob:
        return Fraction(0)
    return Fraction(rng.randint(1, 12), rng.randint(1, 6))


def random_claim(tree: DualTree, seed: int) -> TreeClaim:
    """Random nonnegative finite claim, one draw per leaf in tree order."""
    rng = random.Random(seed)
    return TreeClaim({leaf.id: ExtendedValue.of(random_fraction(rng))
                      for leaf in tree.leaves()}, f"random_{seed}")


def random_rule(tree: DualTree, seed: int, stop_prob: float = 0.3,
                within: frozenset[str] | None = None) -> frozenset[str]:
    """Random stopping rule; when `within` is given, the rule refines it
    (stops at or after it path by path)."""
    rng = random.Random(seed)
    stop: set[str] = set()

    def walk(nid: str, armed: bool) -> None:
        node = tree.nodes[nid]
        armed = armed or within is None or nid in within
        if armed and (node.is_terminal or rng.random() < stop_prob):
            stop.add(nid)
            return
        if node.is_terminal:
            stop.add(nid)
            return
        for b in node.branches:
            walk(b.child, armed)

    walk(tree.root, False)
    return frozenset(stop)


def random_rule_pair(tree: DualTree, seed: int
                     ) -> tuple[frozenset[str], frozenset[str]]:
    """(rho, tau) with rho <= tau path by path."""
    rho = random_rule(tree, seed)
    tau = random_rule(tree, seed + 1, within=rho)
    return rho, tau


def random_terminal_values(tree: DualTree, rule: Collection[str],
                           seed: int) -> dict[str, Fraction]:
    """Random nonnegative values on the rule's nodes, drawn in tree order."""
    rng = random.Random(seed)
    return {nid: random_fraction(rng, zero_prob=0.15)
            for nid in tree.nodes if nid in rule}
