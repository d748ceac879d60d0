"""The package's public surface: what it exports and what it no longer has."""
import importlib
import inspect
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import treecut
from helpers import p6_td
from treecut import generators
from treecut.cli import main
from treecut.errors import (
    BadFraction,
    BadSize,
    DecompositionFormatError,
    EmptyDecomposition,
    GraphFormatError,
    TreecutError,
)
from treecut.fileio import graph_from_json, graph_to_json, parse_graph
from treecut.generators import make_instance, path_graph
from treecut.labeling import PLabeling
from treecut.oracle import (
    brute_force_min_bisection,
    brute_force_min_cut_size_m,
    tree_dp_min_bisection,
)
from treecut.treedec import TreeDecomposition, normalize

EXPECTED = [
    "ApproxCutResult",
    "CutReport",
    "Graph",
    "TreeDecomposition",
    "ValidityReport",
    "WeightReport",
    "approximate_cut",
    "bound_value",
    "cut_width",
    "exact_size_cut_linear",
    "heaviest_path",
    "legible_bound",
    "longest_path_in_tree",
    "make_nonredundant",
    "max_degree",
    "minimum_bisection",
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
    ("oracle", "brute_force_heaviest_path"),
    ("oracle", "ternary_bisection_lower_bound"),
    ("treedec", "path_weight"),
])
def test_test_only_names_are_gone(module, name):
    assert not hasattr(treecut, name)
    assert not hasattr(importlib.import_module("treecut." + module), name)


@pytest.mark.parametrize("owner, name", [
    (PLabeling, "holds"),
    (PLabeling, "current_vertices"),
    (treecut.TreeDecomposition, "vertex_count"),
])
def test_test_only_members_are_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("func, params", [
    (treecut.validate, ["g", "td"]),
    (treecut.cut_width, ["g", "side"]),
    (treecut.approximate_cut, ["td", "m", "c", "g"]),
    (treecut.heaviest_path, ["td"]),
    (treecut.make_nonredundant, ["td"]),
    (treecut.exact_size_cut_linear, ["g", "td0", "m"]),
    (treecut.minimum_bisection, ["g", "td"]),
])
def test_one_input_shape_per_function(func, params):
    assert list(inspect.signature(func).parameters) == params


# an object of the wrong kind, not a malformed one, handed to a public name
# (graph text that is not a str included);
# a decomposition whose clusters are all empty, which heaviest_path rejects
# as normalization does; normalization's record, which heaviest_path does
# not take; a negative graph_n; decomposition nodes that are not
# iterable; JSON nested deeper than the decoder recurses; a graph of the
# wrong kind handed to an oracle, which `treecut oracle` calls; a
# make_instance family that is not a str, or an argument that is no size,
# leg list, edge probability or seed; and a t or delta of a bound that is
# not a non-negative int
@pytest.mark.parametrize("call, error", [
    (lambda: treecut.validate(None, p6_td()), GraphFormatError),
    (lambda: treecut.validate(path_graph(6), None), DecompositionFormatError),
    (lambda: treecut.make_nonredundant(None), DecompositionFormatError),
    (lambda: treecut.heaviest_path([1]), DecompositionFormatError),
    (lambda: treecut.cut_width(None, bytearray(4)), GraphFormatError),
    (lambda: treecut.max_degree(None), GraphFormatError),
    (lambda: treecut.tree_to_width1_td(None), GraphFormatError),
    (lambda: treecut.longest_path_in_tree(None), GraphFormatError),
    (lambda: treecut.heaviest_path(treecut.TreeDecomposition(
        [1, 2], [(1, 2)], {1: [], 2: []}, 0)), EmptyDecomposition),
    (lambda: treecut.heaviest_path(normalize(p6_td())),
     DecompositionFormatError),
    (lambda: treecut.TreeDecomposition([1], [], {1: []}, -5),
     DecompositionFormatError),
    (lambda: treecut.TreeDecomposition(None, [], {}, 1),
     DecompositionFormatError),
    (lambda: treecut.TreeDecomposition(5, [], {}, 1),
     DecompositionFormatError),
    (lambda: treecut.TreeDecomposition(path_graph(3), [], {}, 3),
     DecompositionFormatError),
    (lambda: treecut.TreeDecomposition.from_json("[" * 100000),
     DecompositionFormatError),
    (lambda: graph_from_json("[" * 100000), GraphFormatError),
    (lambda: parse_graph(b"2 1\n1 2\n"), GraphFormatError),
    (lambda: parse_graph(None), GraphFormatError),
    (lambda: parse_graph(5), GraphFormatError),
    (lambda: tree_dp_min_bisection(None), GraphFormatError),
    (lambda: brute_force_min_cut_size_m(None, 1), GraphFormatError),
    (lambda: brute_force_min_bisection([1, 2]), GraphFormatError),
    (lambda: make_instance(["path"], n=3), TreecutError),
    (lambda: make_instance((2, 3)), TreecutError),
    (lambda: make_instance("spider", legs=5), BadSize),
    (lambda: make_instance("spider", legs=2.5), BadSize),
    (lambda: make_instance("spider", legs=True), BadSize),
    (lambda: make_instance("spider", legs=object()), BadSize),
    (lambda: make_instance("spider", legs="33"), BadSize),
    (lambda: make_instance("spider", legs=[3, None]), BadSize),
    (lambda: make_instance("caterpillar", spine=None), BadSize),
    (lambda: make_instance("caterpillar", hairs=None), BadSize),
    (lambda: make_instance("random-td", n=10, edge_prob="x"), BadFraction),
    (lambda: make_instance("random-td", n=10, edge_prob={}), BadFraction),
    (lambda: make_instance("random-td", n=10, edge_prob=None), BadFraction),
    (lambda: make_instance("random-td", n=10, edge_prob=1.5), BadFraction),
    (lambda: make_instance("random-td", n=10, seed={}), BadSize),
    (lambda: make_instance("random-tree", n=10, seed=[1]), BadSize),
    (lambda: make_instance("random-tree", n=10, seed=object()), BadSize),
    (lambda: make_instance("random-tree", n=10, seed=True), BadSize),
    (lambda: treecut.bound_value("2", 2, 1), BadSize),
    (lambda: treecut.bound_value(2, None, 1), BadSize),
    (lambda: treecut.bound_value(2.0, 2, 1), BadSize),
    (lambda: treecut.bound_value(-1, 2, 1), BadSize),
    (lambda: treecut.bound_value(2, True, 1), BadSize),
    (lambda: treecut.legible_bound([2], 2, 1), BadSize),
    (lambda: treecut.legible_bound(2, -3, 1), BadSize),
    (lambda: treecut.legible_bound(2, 1j, 1), BadSize),
], ids=["validate-g", "validate-td", "make_nonredundant", "heaviest_path",
        "cut_width", "max_degree", "tree_to_width1_td",
        "longest_path_in_tree", "heaviest_path-empty",
        "heaviest_path-record", "TreeDecomposition-negative-graph_n",
        "TreeDecomposition-nodes-None", "TreeDecomposition-nodes-int",
        "TreeDecomposition-nodes-Graph",
        "from_json-deep",
        "graph_from_json-deep", "parse_graph-bytes", "parse_graph-None",
        "parse_graph-int", "tree_dp_min_bisection",
        "brute_force_min_cut_size_m", "brute_force_min_bisection",
        "make_instance-family-list", "make_instance-family-tuple",
        "make_instance-legs-int", "make_instance-legs-float",
        "make_instance-legs-bool", "make_instance-legs-object",
        "make_instance-legs-str", "make_instance-leg-None",
        "make_instance-spine-None", "make_instance-hairs-None",
        "make_instance-edge_prob-str", "make_instance-edge_prob-dict",
        "make_instance-edge_prob-None", "make_instance-edge_prob-above-1",
        "make_instance-seed-dict", "make_instance-seed-list",
        "make_instance-seed-object", "make_instance-seed-bool",
        "bound_value-t-str",
        "bound_value-delta-None", "bound_value-t-float",
        "bound_value-t-negative", "bound_value-delta-bool",
        "legible_bound-t-list", "legible_bound-delta-negative",
        "legible_bound-delta-complex"])
def test_public_names_reject_arguments_of_the_wrong_kind(call, error):
    with pytest.raises(error):
        call()


# every seed type make_instance accepts seeds random without a warning, so
# the same seeds pass on every supported Python, `-W error` included
@pytest.mark.parametrize("seed", [None, 7, 2.5, "s", b"s", bytearray(b"s")])
def test_make_instance_takes_every_accepted_seed_type(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, td = make_instance("random-tree", n=10, seed=seed)
    assert g.n == 10


@pytest.mark.parametrize("command", ["bisect", "cut"])
def test_no_impl_option(command):
    res = CliRunner().invoke(main, [command, "--help"])
    assert res.exit_code == 0
    assert "--impl" not in res.output


# Small atoms for the drawn calls below, each made afresh per draw. Sizes
# stay small on purpose: a drawn size of 10**30 exhausts memory inside
# make_instance, where sizes have no upper bound.
ATOMS = [
    lambda: None, lambda: True, lambda: False, lambda: -1, lambda: 0,
    lambda: 1, lambda: 2, lambda: 3, lambda: 6, lambda: 1.5,
    lambda: float("nan"), lambda: Fraction(1, 2),
    lambda: Fraction(1, 10**400), lambda: Decimal("nan"), lambda: 1j,
    lambda: "",
    lambda: "x", lambda: b"x", lambda: bytearray(4), lambda: bytearray(7),
    lambda: [], lambda: [1, 2], lambda: [(1, 2)], lambda: [[1, 2], 3],
    lambda: {}, lambda: {1: [1, 2]}, lambda: {1, 2}, lambda: (2, 3),
    lambda: object(), lambda: path_graph(3), lambda: path_graph(6),
    lambda: p6_td(),
    # connectivity fails: vertex 1 skips node 2
    lambda: TreeDecomposition([1, 2, 3], [(1, 2), (2, 3)],
                              {1: [1, 2], 2: [2, 3], 3: [1, 3]}, 3),
    lambda: normalize(p6_td()),
    lambda: "3 2\n1 2\n2 3\n", lambda: graph_to_json(path_graph(3)),
    lambda: p6_td().to_json(), lambda: "[" * 5000,
    *(lambda f=f: f for f in ["path", "star", "spider", "caterpillar",
                             "ternary", "random-tree", "grid",
                             "random-td"]),
]
atoms = st.sampled_from(ATOMS).map(lambda make: make())

# every name in __all__, the front end, the oracles and the generators
CALLABLES = {name: getattr(treecut, name) for name in treecut.__all__}
CALLABLES.update({name: getattr(generators, name) for name in [
    "path_graph", "star_graph", "spider_graph", "caterpillar_graph",
    "ternary_tree", "random_tree", "grid_graph", "grid_td",
    "random_graph_with_td"]})
CALLABLES.update({
    "make_instance": make_instance,
    "parse_graph": parse_graph,
    "graph_from_json": graph_from_json,
    "TreeDecomposition.from_json": TreeDecomposition.from_json,
    "brute_force_min_bisection": brute_force_min_bisection,
    "brute_force_min_cut_size_m": brute_force_min_cut_size_m,
    "tree_dp_min_bisection": tree_dp_min_bisection,
})
MAKE_INSTANCE_KEYS = ["n", "h", "k", "legs", "spine", "hairs", "width",
                      "seed", "edge_prob"]


@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_arguments_raise_nothing_but_a_treecut_error(name, data):
    """Each public callable, given as many positional arguments as it
    takes (its optional ones or not) drawn from small atoms, and
    make_instance also keyword arguments, returns or raises a
    TreecutError, never a bare exception."""
    fn = CALLABLES[name]
    params = inspect.signature(fn).parameters.values()
    positional = [p for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = sum(p.default is p.empty for p in positional)
    k = data.draw(st.integers(required, len(positional)))
    args = data.draw(st.lists(atoms, min_size=k, max_size=k))
    kwargs = {}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        kwargs = data.draw(st.dictionaries(
            st.sampled_from(MAKE_INSTANCE_KEYS), atoms, max_size=3))
    try:
        fn(*args, **kwargs)
    except TreecutError:
        pass
