import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    dfs_subtree_weights,
    p6_td,
    rerooted_listing,
    sorting_cut_tree,
    vertex_count,
)
from treecut import approxcut
from treecut.approxcut import approximate_cut, compute_subtree_weights
from treecut.errors import (
    BadFraction,
    BadSize,
    DecompositionFormatError,
    GraphFormatError,
    InvalidDecomposition,
)
from treecut.generators import (
    grid_graph,
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
    random_tree,
)
from treecut.graph import Graph, cut_width, max_degree
from treecut.treedec import (
    TreeDecomposition,
    make_nonredundant,
    tree_to_width1_td,
    validate,
)
from treecut.util import OpsCounter


def _public_walk(td):
    """(child, parent) pairs of td walked depth first from its smallest
    node, children in `td.neighbors` order, the listing the public cut
    writes by position (RootedTree.of before it)."""
    root = min(td.nodes)
    pairs = []
    stack = [(j, root) for j in reversed(td.neighbors[root])]
    while stack:
        i, p = stack.pop()
        pairs.append((i, p))
        stack.extend((j, i) for j in reversed(td.neighbors[i]) if j != p)
    return pairs


def _listing(td):
    """(nodes, parent, clusters) of td as the public cut lists it."""
    return rerooted_listing(min(td.nodes), _public_walk(td), td.clusters)


def _weights(td):
    """(nodes, SubtreeWeights) of td as the public cut lists it."""
    nodes, parent, clusters = _listing(td)
    return nodes, compute_subtree_weights(parent, clusters, td.graph_n)


def _by_node(nodes, values):
    """A positional list of SubtreeWeights keyed by node id."""
    return dict(zip(nodes, values))


def _ranked_children(nodes, sw):
    """SubtreeWeights' child positions as node ids, keyed by node id, each
    list ranked as the greedy ranks it: by reduced weight, then position,
    both descending."""
    def rank(j):
        return sw.reduced[j], j
    return {nodes[k]: [nodes[j] for j in sorted(kids, key=rank, reverse=True)]
            for k, kids in enumerate(sw.children)}


def test_subtree_weights_p6():
    nodes, sw = _weights(p6_td())
    total, reduced = _by_node(nodes, sw.total), _by_node(nodes, sw.reduced)
    assert total[1] == 6
    # the leaf node {5,6} contributes vertex 6 only once its parent's
    # cluster vertex 5 is stripped
    assert reduced[5] == 1
    assert total[5] == 2
    assert nodes[0] == 1


def test_subtree_weights_single_node():
    td = TreeDecomposition([1], [], {1: [1, 2, 3]}, 3)
    nodes, sw = _weights(td)
    assert _by_node(nodes, sw.total)[1] == 3
    assert _by_node(nodes, sw.reduced)[1] == 3


def test_children_sorted_by_reduced_weight():
    """Each position's children are listed highest position first, and the
    greedy's rank orders them by reduced weight, heaviest first."""
    for seed in range(15):
        _, td0 = random_graph_with_td(22, 3, seed)
        td = make_nonredundant(td0)
        nodes, parent, clusters = _listing(td)
        sw = compute_subtree_weights(parent, clusters, td.graph_n)
        for k, kids in enumerate(sw.children):
            assert kids == [j for j in range(len(parent) - 1, 0, -1)
                            if parent[j] == k]
        children = _ranked_children(nodes, sw)
        reduced = _by_node(nodes, sw.reduced)
        for i in td.nodes:
            kids = children[i]
            assert kids == sorted(kids, key=lambda j: -reduced[j])


@st.composite
def decompositions(draw):
    """Nonredundant random decompositions, width-1 decompositions of random
    trees, and grid path decompositions."""
    kind = draw(st.sampled_from(["random-td", "tree", "grid"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "random-td":
        _, td = random_graph_with_td(draw(st.integers(2, 60)),
                                     draw(st.integers(1, 4)), seed)
        return make_nonredundant(td)
    if kind == "tree":
        return tree_to_width1_td(random_tree(draw(st.integers(1, 80)), seed))
    return grid_td(draw(st.integers(1, 7)))


def _hanging_walk(td, w):
    """(child, parent) pairs of the tree hanging from node w, walked the way
    build_plabeling walks a hanging tree."""
    pairs = []
    stack = [(x, w) for x in reversed(td.neighbors[w])]
    while stack:
        v, p = stack.pop()
        pairs.append((v, p))
        for x in td.neighbors[v]:
            if x != p:
                stack.append((x, v))
    return pairs


def _assert_same_weights(ref_td, root, pairs):
    """compute_subtree_weights on the tree `root` plus `pairs` over ref_td's
    clusters, rooted at its smallest node (see rerooted_listing), equals
    the DFS reference on ref_td: the same totals and reduced weights, the
    children ranked as the greedy ranks them in the reference's bucket
    order, and the ops of the reference's weights, its bucket sort's
    (`top + len(order)`) left out."""
    ops_ref, ops_new = OpsCounter(), OpsCounter()
    ref = dfs_subtree_weights(ref_td, ops=ops_ref)
    nodes, parent, clusters = rerooted_listing(root, pairs, ref_td.clusters)
    new = compute_subtree_weights(parent, clusters, ref_td.graph_n,
                                  ops=ops_new)
    assert nodes[0] == ref.root
    assert _by_node(nodes, new.total) == ref.total
    assert _by_node(nodes, new.reduced) == ref.reduced
    assert _ranked_children(nodes, new) == ref.children
    work = ops_ref.total - (ref.total[ref.root] + len(ref.order))
    assert ops_new.total == work
    return nodes, new


@settings(max_examples=100, deadline=None)
@given(decompositions(), st.randoms(use_true_random=False))
def test_subtree_weights_match_the_dfs_reference(td, rnd):
    # public path: a decomposition walked from its smallest node
    _assert_same_weights(td, min(td.nodes), _public_walk(td))
    # driver path: a hanging tree as the labeling lists it, from any node
    for w in rnd.sample(td.nodes, min(3, len(td.nodes))):
        pairs = _hanging_walk(td, w)
        ref_td = TreeDecomposition([w] + [c for c, _ in pairs],
                                   [(p, c) for c, p in pairs], td.clusters,
                                   td.graph_n)
        _assert_same_weights(ref_td, w, pairs)


@settings(max_examples=50, deadline=None)
@given(decompositions())
def test_public_cut_lists_the_decomposition_as_the_pair_walk_does(td):
    """approximate_cut hands its cut the tree that the depth-first (child,
    parent) walk from the smallest node gives, position for position."""
    handed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approxcut, "_cut_tree", lambda *args: handed.append(args))
        approximate_cut(td, 1, 0.5)
    _, parent, clusters = rerooted_listing(min(td.nodes), _public_walk(td),
                                           td.clusters)
    assert handed == [(parent, clusters, td.graph_n, 1, 0.5, None)]


def _tie_heavy_td():
    """Many siblings of equal reduced weight under two hubs, 50 and 100,
    and under node 1, two levels below node 100; 300 vertices at node 100
    alone, far above the 63 nodes."""
    clusters = {100: list(range(1, 301))}
    edges = []
    nxt = 301

    def add(node, parent, shared, fresh):
        nonlocal nxt
        clusters[node] = [shared, *range(nxt, nxt + fresh)]
        edges.append((parent, node))
        nxt += fresh

    add(50, 100, 1, 1)                          # hub 1, vertex 301
    for k in range(30):                         # reduced 3, every third 5
        add(51 + k, 50, 301, 5 if k % 3 == 1 else 3)
    for k in range(20):                         # hub 100: reduced 2 each
        add(101 + k, 100, 2, 2)
    add(3, 100, 3, 2)                           # re-rooting chain 1 - 3 - 100
    add(1, 3, nxt - 1, 2)
    own = nxt - 1
    for k in range(8):                          # ties under the new root too
        add(200 + k, 1, own, 1)
    return TreeDecomposition(list(clusters), edges, clusters, nxt - 1)


def test_children_of_a_tie_heavy_rerooted_tree_follow_the_bucket_order():
    """The tie-heavy tree listed from node 100 but re-rooted at node 1, and
    a total far above the node count, so most weights hold no node: the
    greedy's rank orders children as the reference's buckets do."""
    td = _tie_heavy_td()
    assert validate(Graph(td.graph_n, []), td).ok
    pairs = _hanging_walk(td, 100)
    ref_td = TreeDecomposition([100] + [c for c, _ in pairs],
                               [(p, c) for c, p in pairs], td.clusters,
                               td.graph_n)
    nodes, sw = _assert_same_weights(ref_td, 100, pairs)
    reduced = _by_node(nodes, sw.reduced)
    assert nodes[0] == 1
    assert sw.total[0] > 5 * len(nodes)
    assert len(set(sw.reduced)) < len(nodes) // 4
    hub = _ranked_children(nodes, sw)[50]
    assert [reduced[j] for j in hub] == [5] * 10 + [3] * 20


def _cluster_graph(td):
    """A graph td decomposes: each cluster's sorted entries joined in a
    path."""
    edges = set()
    for cl in td.clusters.values():
        xs = sorted(cl)
        edges.update(zip(xs, xs[1:]))
    return Graph(td.graph_n, edges)


@settings(max_examples=100, deadline=None)
@given(decompositions(), st.randoms(use_true_random=False),
       st.integers(0, 10 ** 6), st.integers(1, 99))
def test_cut_matches_the_sorting_reference(td, rnd, m_raw, c_pct):
    """The greedy, which ranks only the children of the nodes it visits,
    picks the B, rounds and width of the reference that sorted every
    node's children: on the public listing, on the trees hanging from
    drawn nodes, and on the tie-heavy tree, at sizes spread from a drawn
    one and a drawn c."""
    c = Fraction(c_pct, 100)
    tie = _tie_heavy_td()
    trees = [(td, _listing(td)),
             (tie, rerooted_listing(100, _hanging_walk(tie, 100),
                                    tie.clusters))]
    for w in rnd.sample(td.nodes, min(3, len(td.nodes))):
        trees.append((td, rerooted_listing(w, _hanging_walk(td, w),
                                           td.clusters)))
    for t, (_, parent, clusters) in trees:
        g = _cluster_graph(t)
        count = vertex_count(t)
        step = -(-count // 40)  # up to 40 sizes per tree, from a drawn one
        for m in range(1 + m_raw % step, count + 1, step):
            new = approxcut._cut_tree(parent, clusters, t.graph_n, m, c, g)
            ref = sorting_cut_tree(parent, clusters, t.graph_n, m, c, g)
            assert new.b_vertices == ref.b_vertices
            assert (new.rounds, new.width) == (ref.rounds, ref.width)


def test_p6_half():
    g = path_graph(6)
    td = p6_td()
    res = approximate_cut(td, 6, Fraction(1, 2), g=g)
    assert 3 < len(res.b_vertices) <= 6
    assert res.rounds <= 1
    assert res.width <= 4  # rounds * t * Delta with t = 2, Delta = 2
    side = bytearray(g.n + 1)
    for v in res.b_vertices:
        side[v] = 1
    assert cut_width(g, side) == res.width


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


def test_size_above_the_covered_vertices_is_rejected():
    """m may not exceed the vertices the clusters cover, even within
    graph_n."""
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3]}, 5)
    assert approximate_cut(td, 3, Fraction(1, 2)).b_vertices == [1, 2, 3]
    with pytest.raises(BadSize, match="covers 3 < m vertices"):
        approximate_cut(td, 4, Fraction(1, 2))


# sizes that are not ints; bools too, as TreeDecomposition refuses them
@pytest.mark.parametrize("m", [1.5, 2.0, Fraction(3), "3", None, True])
def test_size_that_is_not_an_int_is_rejected(m):
    with pytest.raises(BadSize):
        approximate_cut(p6_td(), m, Fraction(1, 2))


def test_graph_of_another_size_is_rejected():
    td = p6_td()
    for n in (5, 7):
        with pytest.raises(InvalidDecomposition, match="%d vertices" % n):
            approximate_cut(td, 3, Fraction(1, 2), g=path_graph(n))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_graph_that_validates_but_has_another_size_is_rejected(m):
    """validate accepts a graph_n above the graph's order when no cluster
    holds the extra vertex; the cut still refuses the pair, naming both
    sizes rather than the side array it would build."""
    g = path_graph(3)
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3]}, 4)
    assert validate(g, td).ok
    with pytest.raises(InvalidDecomposition,
                       match="3 vertices .* graph_n is 4"):
        approximate_cut(td, m, Fraction(1, 2), g)


# a graph or decomposition of the wrong kind, not a malformed one
@pytest.mark.parametrize("td, g, error", [
    (None, None, DecompositionFormatError),
    ([1], None, DecompositionFormatError),
    ("x", path_graph(6), DecompositionFormatError),
    (p6_td(), "x", GraphFormatError),
    (p6_td(), p6_td(), GraphFormatError),
    # a tree in the (parent, clusters) form the approximate cut reads
    (([0, 0], [[1, 2], [2, 3]]), None, DecompositionFormatError),
])
def test_arguments_of_the_wrong_kind_are_rejected(td, g, error):
    with pytest.raises(error):
        approximate_cut(td, 3, 0.5, g=g)


def test_bad_fraction():
    td = p6_td()
    for c in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4),
              "1/2", None, 0.5j, Decimal("nan")):
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
