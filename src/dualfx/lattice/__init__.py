"""Exact finite-lattice realization of the dollar/euro measure pair."""

from .checks import (bayes_check, martingale_transfer_check,
                     verify_numeraire_identity)
from .pricing import (ParityRow, TreeClaim, TreeDualPrice, TreeStrategy,
                      parity_and_equivalence_report, price_on_tree,
                      superreplicate_backward, tree_claim, tree_euro_forward,
                      validate_claim, verify_strategy)
from .random_trees import (random_claim, random_complete_dual_tree,
                           random_dual_tree, random_rule_pair,
                           random_terminal_values)
from .tree import (Branch, DualTree, TreeNode, build_dual_tree, dump_tree,
                   first_hit_rule, load_tree, period_rule, tree_to_doc,
                   two_period_example, verify_tree_invariants)

__all__ = [
    "Branch", "DualTree", "TreeNode", "TreeClaim", "TreeDualPrice",
    "TreeStrategy", "ParityRow",
    "build_dual_tree", "load_tree", "dump_tree", "tree_to_doc",
    "two_period_example", "verify_tree_invariants",
    "period_rule", "first_hit_rule",
    "verify_numeraire_identity", "bayes_check", "martingale_transfer_check",
    "price_on_tree", "superreplicate_backward",
    "parity_and_equivalence_report", "verify_strategy", "validate_claim",
    "tree_claim", "tree_euro_forward",
    "random_dual_tree", "random_complete_dual_tree", "random_claim",
    "random_rule_pair", "random_terminal_values",
]
