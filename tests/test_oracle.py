import math
import random

import pytest

from helpers import (
    brute_force_heaviest_path,
    ternary_bisection_lower_bound,
    y_shaped_td,
)
from treecut import oracle
from treecut.errors import BadSize, NotATree, TreecutError
from treecut.generators import (
    caterpillar_graph,
    make_instance,
    path_graph,
    random_tree,
    spider_graph,
    star_graph,
    ternary_tree,
)
from treecut.graph import Graph
from treecut.oracle import (
    brute_force_min_bisection,
    brute_force_min_cut_size_m,
    tree_dp_min_bisection,
)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1)])


def test_k4_bisection():
    w, b = brute_force_min_bisection(complete_graph(4))
    assert w == 4 and len(b) == 2


def test_star_bisection():
    g = star_graph(5)  # six vertices, bisection cuts three spokes
    w, _ = brute_force_min_bisection(g)
    assert w == 3
    assert tree_dp_min_bisection(g) == 3


def test_star_m2():
    w, b = brute_force_min_cut_size_m(star_graph(4), 2)
    assert w == 2
    assert 1 not in b  # grabbing the center would cut every spoke


def test_path_bisection():
    for n in (2, 6, 20):
        w, _ = brute_force_min_bisection(path_graph(n))
        assert w == 1
        assert tree_dp_min_bisection(path_graph(n)) == 1


def test_edge_sizes():
    g = path_graph(5)
    w_all, b_all = brute_force_min_cut_size_m(g, 5)
    assert w_all == 0 and b_all == {1, 2, 3, 4, 5}
    w0, b0 = brute_force_min_cut_size_m(g, 0)
    assert w0 == 0 and b0 == set()


def test_dp_matches_brute_force():
    """At every m of random trees and of the star, caterpillar, spider and
    ternary shapes."""
    trees = [random_tree(6 + seed % 9, seed) for seed in range(25)]
    trees += [star_graph(k) for k in (0, 1, 5, 12)]
    trees += [caterpillar_graph(4, 2), caterpillar_graph(7, 1),
              spider_graph([3, 4, 0, 5]), spider_graph([1, 1, 1, 1, 2])]
    trees += [ternary_tree(h) for h in (0, 1, 2)]
    for g in trees:
        for m in range(g.n + 1):
            assert tree_dp_min_bisection(g, m) == \
                brute_force_min_cut_size_m(g, m)[0], (g.n, m)


def test_ternary_t2():
    g = ternary_tree(2)
    assert g.n == 13
    assert tree_dp_min_bisection(g) == brute_force_min_bisection(g)[0] == 3


def test_ternary_lower_bound():
    for h in (2, 3, 4):
        lb = ternary_bisection_lower_bound(h)
        assert lb == h - math.log(h, 3)
        assert tree_dp_min_bisection(ternary_tree(h)) >= lb


def test_tree_dp_is_capped_at_5000_vertices(monkeypatch):
    with pytest.raises(TreecutError, match="tree DP capped at n=5000"):
        tree_dp_min_bisection(path_graph(5001), 1)
    monkeypatch.setattr(oracle, "_DP_LIMIT", 10)  # the cap is inclusive
    assert tree_dp_min_bisection(path_graph(10)) == 1
    with pytest.raises(TreecutError, match="tree DP capped at n=10"):
        tree_dp_min_bisection(path_graph(11))


def test_guards():
    with pytest.raises(TreecutError):
        brute_force_min_bisection(path_graph(25))
    with pytest.raises(BadSize):
        brute_force_min_cut_size_m(path_graph(4), 5)
    with pytest.raises(NotATree):
        tree_dp_min_bisection(complete_graph(4))


@pytest.mark.parametrize("m", [-1, 7, 3.0, True, False, "3"])
@pytest.mark.parametrize("oracle", [tree_dp_min_bisection,
                                    brute_force_min_cut_size_m])
def test_oracles_reject_a_size_that_is_not_an_int_in_range(oracle, m):
    """On the 6-vertex path, an m outside 0..6 or of another type, a bool
    included, raises BadSize; m = -1 used to give the tree DP's width at
    m = 6 through a negative index."""
    with pytest.raises(BadSize):
        oracle(path_graph(6), m)


def test_tree_dp_takes_every_size_in_range():
    g = path_graph(6)
    assert [tree_dp_min_bisection(g, m) for m in range(7)] == \
        [0, 1, 1, 1, 1, 1, 0]
    assert tree_dp_min_bisection(g) == tree_dp_min_bisection(g, 3)


def test_heaviest_path_y_fixture():
    td = y_shaped_td()
    best, nodes = brute_force_heaviest_path(td)
    assert best == 8
    assert nodes[0] in (5, 9) or nodes[-1] in (5, 9)
