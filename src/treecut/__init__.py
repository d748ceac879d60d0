"""Balanced cuts and minimum bisections driven by tree decompositions."""

from .approxcut import ApproxCutResult, approximate_cut
from .engine import (
    CutReport,
    bound_value,
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
from .treedec import (
    TreeDecomposition,
    ValidityReport,
    WeightReport,
    heaviest_path,
    make_nonredundant,
    tree_to_width1_td,
    validate,
)

__all__ = [
    "ApproxCutResult", "CutReport", "Graph", "TreeDecomposition",
    "ValidityReport", "WeightReport", "approximate_cut", "bound_value",
    "cut_width", "exact_size_cut_linear", "heaviest_path", "legible_bound",
    "longest_path_in_tree", "make_nonredundant", "max_degree",
    "minimum_bisection", "tree_to_width1_td", "validate",
]
