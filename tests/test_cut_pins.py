"""Regression pins: the exact vertex set B returned for fixed small inputs.

Each digest is the SHA-256 (first 16 hex digits) of the sorted B joined by
commas. The tree families and the grid are already nonredundant, so
normalization hands their decompositions through untouched; the random-td
instance contracts. A change to any digest means the cut changed, which has
to be disclosed and explained.
"""
import hashlib

import pytest

from treecut.engine import exact_size_cut_linear
from treecut.generators import grid_td, make_instance
from treecut.treedec import (
    TreeDecomposition,
    make_nonredundant,
    tree_to_width1_td,
)

PINS = [
    ("random-tree", {"n": 60, "seed": 3}, 1, "785f3ec7eb32f30b"),
    ("random-tree", {"n": 60, "seed": 3}, 20, "0721546085e34748"),
    ("random-tree", {"n": 60, "seed": 3}, 30, "9efac20c3f6bb10c"),
    ("caterpillar", {"spine": 20, "hairs": 2}, 1, "6f4b6612125fb3a0"),
    ("caterpillar", {"spine": 20, "hairs": 2}, 20, "f4323640343f31e3"),
    ("caterpillar", {"spine": 20, "hairs": 2}, 30, "85cf35b611ba8dc3"),
    ("ternary", {"h": 4}, 1, "a21855da08cb102d"),
    ("ternary", {"h": 4}, 40, "9121408053b993e2"),
    ("ternary", {"h": 4}, 60, "78167992b2fa6df9"),
    # re-pinned when covering path decompositions came to be labeled from
    # their smallest node, in the order normalization's sweep meets the
    # vertices, instead of from the other end of the path
    ("grid", {"k": 6}, 1, "d4735e3a265e16ee"),
    ("grid", {"k": 6}, 12, "acf42dbcb77884a6"),
    ("grid", {"k": 6}, 18, "b546536e40a1b46c"),
    ("random-td", {"n": 60, "width": 3, "seed": 0}, 1, "c837649cce43f272"),
    ("random-td", {"n": 60, "width": 3, "seed": 0}, 20, "7cbe8ff5c5d81ce5"),
    ("random-td", {"n": 60, "width": 3, "seed": 0}, 30, "e2568c87ccb98743"),
]


def _digest(b):
    return hashlib.sha256(",".join(map(str, sorted(b))).encode()).hexdigest()


@pytest.mark.parametrize("family,params,m,digest", PINS)
def test_cut_is_pinned(family, params, m, digest):
    g, td = make_instance(family, **params)
    b, report = exact_size_cut_linear(g, td, m)
    assert _digest(b)[:16] == digest
    assert report.width <= report.bound


def test_pins_cover_both_normalization_paths():
    for family, params, _, _ in PINS:
        _, td = make_instance(family, **params)
        passes = make_nonredundant(td) is td
        assert passes == (family != "random-td"), family


def test_nonredundant_input_is_returned_as_is():
    for n, seed in ((2, 0), (40, 1), (300, 2)):
        td = tree_to_width1_td(make_instance("random-tree", n=n,
                                             seed=seed)[0])
        assert make_nonredundant(td) is td
    for k in (1, 2, 7):
        td = grid_td(k)
        assert make_nonredundant(td) is td


def test_contracting_input_gets_a_new_object():
    td = TreeDecomposition([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)],
                           {1: [1], 2: [1, 2], 3: [2], 4: [2, 3]}, 3)
    out = make_nonredundant(td)
    assert out is not td
    assert out.nodes == [1, 2]
    assert td.nodes == [1, 2, 3, 4]  # the input is left as it was


def test_sparse_node_ids_pass_through_and_cut():
    # node ids need not be dense once the input is handed through as-is
    g, dense = make_instance("ternary", h=3)
    ids = {i: 7 * i - 7 for i in dense.nodes}  # 0, 7, 14, ...
    td = TreeDecomposition([ids[i] for i in dense.nodes],
                           [(ids[a], ids[b]) for a, b in dense.edges()],
                           {ids[i]: dense.clusters[i] for i in dense.nodes},
                           dense.graph_n)
    assert make_nonredundant(td) is td
    for m in range(g.n + 1):
        b, report = exact_size_cut_linear(g, td, m)
        assert len(set(b)) == m
        assert report.width <= report.bound
