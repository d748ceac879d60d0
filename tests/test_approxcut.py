import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import p6_td
from treecut.approxcut import approximate_cut, compute_subtree_weights
from treecut.errors import BadFraction, BadSize, PartitionInvalid
from treecut.generators import (
    grid_graph,
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
)
from treecut.graph import cut_width, max_degree
from treecut.treedec import TreeDecomposition, make_nonredundant


def test_subtree_weights_p6():
    td = p6_td()
    sw = compute_subtree_weights(td)
    assert sw.total[1] == 6
    # the leaf node {5,6} contributes vertex 6 only once its parent's
    # cluster vertex 5 is stripped
    assert sw.reduced[5] == 1
    assert sw.total[5] == 2
    assert sw.order[0] == 1 and sw.parent[1] is None


def test_subtree_weights_single_node():
    td = TreeDecomposition([1], [], {1: [1, 2, 3]}, 3)
    sw = compute_subtree_weights(td)
    assert sw.total[1] == 3
    assert sw.reduced[1] == 3


def test_children_sorted_by_reduced_weight():
    for seed in range(15):
        _, td0 = random_graph_with_td(22, 3, seed)
        td = make_nonredundant(td0)
        sw = compute_subtree_weights(td)
        for i in td.nodes:
            kids = sw.children[i]
            assert kids == sorted(kids, key=lambda j: -sw.reduced[j])


def test_p6_half():
    g = path_graph(6)
    td = p6_td()
    res = approximate_cut(td, 6, Fraction(1, 2), g=g)
    assert 3 < len(res.b_vertices) <= 6
    assert res.rounds <= 1
    assert res.width <= 4  # rounds * t * Delta with t = 2, Delta = 2
    part = [sorted(res.b_vertices),
            sorted(set(g.vertices) - set(res.b_vertices))]
    if part[1]:
        from treecut.graph import Partition
        assert cut_width(g, Partition(g.n, part)) == res.width


def test_grid4_cut():
    g = grid_graph(4)
    td = grid_td(4)
    res = approximate_cut(td, 8, Fraction(3, 4), g=g)
    assert 6 < len(res.b_vertices) <= 8
    assert res.rounds <= 2
    assert res.width <= res.rounds * 5 * 4
    assert res.width <= 40


def test_bad_size():
    td = p6_td()
    with pytest.raises(BadSize):
        approximate_cut(td, 0, Fraction(1, 2))
    with pytest.raises(BadSize):
        approximate_cut(td, 7, Fraction(1, 2))


def test_graph_of_another_size_is_rejected():
    td = p6_td()
    for n in (5, 7):
        with pytest.raises(PartitionInvalid):
            approximate_cut(td, 3, Fraction(1, 2), g=path_graph(n))


def test_bad_fraction():
    td = p6_td()
    for c in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
        with pytest.raises(BadFraction):
            approximate_cut(td, 3, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 30), st.integers(1, 3), st.integers(0, 10 ** 6),
       st.integers(1, 30), st.integers(1, 9))
def test_contract_random(n, width, seed, m_raw, c_num):
    g, td0 = random_graph_with_td(n, width, seed)
    td = make_nonredundant(td0)
    m = 1 + m_raw % g.n
    c = Fraction(c_num, 10)
    res = approximate_cut(td, m, c, g=g)
    b = set(res.b_vertices)
    assert len(b) == len(res.b_vertices)
    assert c * m < len(b) <= m
    cap = math.ceil(math.log2(1 / (1 - c)))
    assert res.rounds <= max(cap, 0)
    t = td.width() + 1
    assert res.width <= res.rounds * t * max_degree(g)
    naive = sum(1 for u, v in g.edges() if (u in b) != (v in b))
    assert res.width == naive
