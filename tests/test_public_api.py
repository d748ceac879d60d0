"""The package's public surface: what it exports and what it no longer has."""
import importlib
import inspect

import pytest
from click.testing import CliRunner

import treecut
from treecut.cli import main

EXPECTED = [
    "ApproxCutResult",
    "CutReport",
    "Graph",
    "PLabeling",
    "RootedTree",
    "TreeDecomposition",
    "ValidityReport",
    "WeightReport",
    "approximate_cut",
    "bound_value",
    "build_plabeling",
    "compute_subtree_weights",
    "cut_width",
    "doubling_step",
    "exact_size_cut_linear",
    "heaviest_path",
    "legible_bound",
    "longest_path_in_tree",
    "make_nonredundant",
    "max_degree",
    "minimum_bisection",
    "path_weight",
    "tree_to_width1_td",
    "validate",
]


def test_all_is_the_expected_list():
    assert treecut.__all__ == EXPECTED
    for name in treecut.__all__:
        assert getattr(treecut, name) is not None


@pytest.mark.parametrize("module, name", [
    ("engine", "exact_size_cut"),
    ("engine", "tricut_width"),
    ("treedec", "restrict"),
    ("labeling", "decompose_by_node"),
    ("labeling", "cluster_boundary_edges"),
    ("treedec", "is_nonredundant_path"),
    ("graph", "Partition"),
    ("graph", "relative_diameter"),
    ("labeling", "CircularIndex"),
    ("errors", "NotAForest"),
])
def test_test_only_names_are_gone(module, name):
    assert not hasattr(treecut, name)
    assert not hasattr(importlib.import_module("treecut." + module), name)


@pytest.mark.parametrize("owner, name", [
    (treecut.PLabeling, "holds"),
    (treecut.PLabeling, "current_vertices"),
    (treecut.TreeDecomposition, "vertex_count"),
])
def test_test_only_members_are_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("func, params", [
    (treecut.validate, ["g", "td"]),
    (treecut.cut_width, ["g", "side"]),
])
def test_one_input_shape_per_function(func, params):
    assert list(inspect.signature(func).parameters) == params


@pytest.mark.parametrize("command", ["bisect", "cut"])
def test_no_impl_option(command):
    res = CliRunner().invoke(main, [command, "--help"])
    assert res.exit_code == 0
    assert "--impl" not in res.output
