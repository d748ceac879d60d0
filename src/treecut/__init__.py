"""Balanced cuts and minimum bisections driven by tree decompositions."""

from .approxcut import (
    ApproxCutResult,
    RootedTree,
    approximate_cut,
    compute_subtree_weights,
)
from .engine import (
    CutReport,
    bound_value,
    doubling_step,
    exact_size_cut_linear,
    legible_bound,
    minimum_bisection,
)
from .graph import (
    Graph,
    cut_width,
    longest_path_in_tree,
    max_degree,
)
from .labeling import PLabeling, build_plabeling
from .treedec import (
    TreeDecomposition,
    ValidityReport,
    WeightReport,
    heaviest_path,
    make_nonredundant,
    path_weight,
    tree_to_width1_td,
    validate,
)

__all__ = [
    "ApproxCutResult", "CutReport", "Graph", "PLabeling", "RootedTree",
    "TreeDecomposition", "ValidityReport", "WeightReport", "approximate_cut",
    "bound_value", "build_plabeling", "compute_subtree_weights", "cut_width",
    "doubling_step", "exact_size_cut_linear", "heaviest_path",
    "legible_bound", "longest_path_in_tree", "make_nonredundant",
    "max_degree", "minimum_bisection", "path_weight", "tree_to_width1_td",
    "validate",
]
