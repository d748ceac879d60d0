from decimal import Decimal
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    double_loop_cut_width,
    ref_component,
    ref_is_tree,
    ref_longest_path_in_tree,
    ref_tree_to_width1_td,
    run_capped,
)
from treecut import graph
from treecut.errors import (
    BadFraction,
    BadSize,
    GraphFormatError,
    NotATree,
    PartitionInvalid,
)
from treecut.generators import (
    caterpillar_graph,
    grid_graph,
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
    random_tree,
    spider_graph,
    star_graph,
    ternary_tree,
)
from treecut.graph import (
    Graph,
    cut_width,
    longest_path_in_tree,
    max_degree,
)
from treecut.treedec import tree_to_width1_td


def side_of(g, b):
    """Side array of g with 1 at the vertices of b."""
    side = bytearray(g.n + 1)
    for v in b:
        side[v] = 1
    return side


def test_construction_rejects_garbage():
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(1, 3)])


@pytest.mark.parametrize("n, edges", [
    ("3", []),
    (3.0, []),
    (None, []),
    (3, None),
    (3, [(1,)]),
    (3, [(1, 2, 3)]),
    (3, [(1, "x")]),
    (3, [(1, 2.0)]),
    (3, [(2.0, 1)]),
    (2, [(True, 2)]),
    (2, [(2, True)]),
    (2, [(False, 2)]),
    (3, [(Decimal("nan"), 1)]),
], ids=["n-str", "n-float", "n-none", "edges-none", "short-pair",
        "long-pair", "endpoint-str", "endpoint-float", "float-first",
        "endpoint-true", "true-second", "endpoint-false",
        "endpoint-decimal-nan"])
def test_construction_rejects_malformed_input(n, edges):
    with pytest.raises(GraphFormatError):
        Graph(n, edges)


def test_construction_keeps_its_messages():
    with pytest.raises(GraphFormatError, match=r"parallel edge \(1, 2\)"):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(GraphFormatError, match="nonnegative"):
        Graph(-1, [])


def test_an_order_beyond_memory_is_a_format_error():
    """The adjacency lists are built before any edge is read, so the order
    a file names alone can exhaust memory: that ends as GraphFormatError
    naming the order, not MemoryError."""
    assert run_capped("""
from treecut.errors import GraphFormatError
from treecut.graph import Graph
try:
    Graph(10 ** 9, [])
except GraphFormatError as exc:
    print(exc)
""") == "no memory for 1000000000 vertices\n"


def test_a_family_beyond_memory_is_a_bad_size():
    """make_instance turns a MemoryError met while it builds the family
    into BadSize naming the family; a path of 1e10 vertices does not fit
    in 1 GiB."""
    assert run_capped("""
from treecut.errors import BadSize
from treecut.generators import make_instance
try:
    make_instance("path", n=10 ** 10)
except BadSize as exc:
    print(exc)
""") == "no memory for family 'path'\n"


def test_cut_width_star():
    g = star_graph(4)  # center 1, leaves 2..5
    assert cut_width(g, side_of(g, {2, 3})) == 2


def test_cut_width_k4():
    g = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert cut_width(g, side_of(g, {1, 2})) == 4


@pytest.mark.parametrize("g", [path_graph(1), path_graph(7), star_graph(5),
                               Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]),
                               Graph(3, [])])
def test_cut_width_with_one_side_empty(g):
    every = list(g.vertices)
    naive = sum(1 for u, v in g.edges() if (u in every) != (v in every))
    assert naive == 0
    assert cut_width(g, bytearray(g.n + 1)) == naive
    assert cut_width(g, bytes([1] * (g.n + 1))) == naive


@pytest.mark.parametrize("b, width", [
    ({5, 1, 2}, 3), ({2, 6, 4, 3}, 3), ({6, 1, 3, 5, 4}, 2),
    ({1, 2, 3, 4, 5}, 1), (set(), 0), ({1, 2, 3, 4, 5, 6}, 0)])
@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_cut_width_sums_over_the_smaller_side(monkeypatch, b, width, kind):
    """cut_width hands compress the selectors of the side with fewer
    vertices, the side marked 1 on a tie, and leaves the caller's array as
    it was; the width is the cut's. The selector at index 0 is not read:
    vertex 0 has no neighbors."""
    selectors = []

    def recording(data, sel):
        selectors.append(bytes(sel[1:]))
        return compress(data, sel)

    monkeypatch.setattr(graph, "compress", recording)
    g = path_graph(6)
    assert g.adj[0] == []
    side = kind(side_of(g, b))
    before = bytes(side)
    assert cut_width(g, side) == width
    assert bytes(side) == before
    marked = b if 2 * len(b) <= 6 else set(range(1, 7)) - b
    assert selectors == [bytes(x in marked for x in range(1, 7))] * 2


def test_cut_width_side_array_length_is_checked():
    with pytest.raises(PartitionInvalid):
        cut_width(path_graph(4), bytearray(4))


def test_cut_width_rejects_anything_but_a_side_array():
    g = path_graph(4)
    with pytest.raises(PartitionInvalid):
        cut_width(g, [{1, 2}, {3, 4}])  # vertex sets, the removed class form
    with pytest.raises(PartitionInvalid):
        cut_width(g, [0, 1, 1, 0, 0])  # right length, wrong type


def test_spider_rejects_negative_leg():
    with pytest.raises(BadSize):
        spider_graph([-2, 3])
    assert spider_graph([0, 2]).n == 3


def test_caterpillar_rejects_negative_hairs():
    with pytest.raises(BadSize):
        caterpillar_graph(3, -1)
    assert caterpillar_graph(3, 0).n == 3


# each family function checks its own arguments, grid_td's side k >= 1
# included: without it k = 0 gives no node and k = -2 six empty clusters
@pytest.mark.parametrize("call, error", [
    (lambda: path_graph(2.5), BadSize),
    (lambda: path_graph(0), BadSize),
    (lambda: star_graph(None), BadSize),
    (lambda: star_graph(-1), BadSize),
    (lambda: spider_graph(5), BadSize),
    (lambda: spider_graph([2, True]), BadSize),
    (lambda: caterpillar_graph(2, None), BadSize),
    (lambda: caterpillar_graph(0, 1), BadSize),
    (lambda: ternary_tree(1.0), BadSize),
    (lambda: random_tree("5"), BadSize),
    (lambda: random_tree(5, seed={}), BadSize),
    (lambda: random_tree(1, seed=True), BadSize),
    (lambda: grid_graph(None), BadSize),
    (lambda: grid_td(0), BadSize),
    (lambda: grid_td(-2), BadSize),
    (lambda: grid_td(2.0), BadSize),
    (lambda: random_graph_with_td(10, 2, 0, "x"), BadFraction),
    (lambda: random_graph_with_td(10, 2, 0, -0.5), BadFraction),
    (lambda: random_graph_with_td(10, 2, 0, Decimal("nan")), BadFraction),
    (lambda: random_graph_with_td(10, -1), BadSize),
    (lambda: random_graph_with_td(10, 2, [1]), BadSize),
], ids=["path-float", "path-0", "star-None", "star-negative", "spider-int",
        "spider-bool-leg", "caterpillar-hairs-None", "caterpillar-spine-0",
        "ternary-float", "random_tree-str", "random_tree-seed-dict",
        "random_tree-seed-bool", "grid-None", "grid_td-0", "grid_td-negative",
        "grid_td-float", "random-td-edge_prob-str",
        "random-td-edge_prob-negative", "random-td-edge_prob-decimal-nan",
        "random-td-width-negative", "random-td-seed-list"])
def test_family_functions_check_their_own_arguments(call, error):
    with pytest.raises(error):
        call()


def test_make_instance_names_the_size_it_was_given():
    # star_graph(n - 1) would name its own argument, leaves=-1
    with pytest.raises(BadSize, match="^n=0 is not an int >= 1$"):
        make_instance("star", n=0)
    with pytest.raises(BadSize, match="^width=-1 "):
        make_instance("path", n=3, width=-1)


def test_an_empty_leg_list_is_the_one_vertex_spider():
    g, td = make_instance("spider", legs=[])
    assert g.n == 1 and td.clusters == {1: [1]}
    assert make_instance("spider")[0].n == 10  # legs 3, 3, 3 when not given


@pytest.mark.parametrize("family, kw", [
    ("path", {"n": 2.5}),
    ("grid", {"k": 2.5}),
    ("random-td", {"n": 10, "width": 2.5}),
    ("caterpillar", {"spine": 3, "hairs": 1.5}),
    ("spider", {"legs": [2, "a"]}),
    ("star", {"n": "3"}),
    ("ternary", {"h": True}),
], ids=["path-n", "grid-k", "random-td-width", "caterpillar-hairs",
        "spider-leg", "star-n", "ternary-h-bool"])
def test_make_instance_rejects_sizes_that_are_not_ints(family, kw):
    with pytest.raises(BadSize):
        make_instance(family, **kw)


def test_longest_path_p6_is_whole_path():
    assert longest_path_in_tree(path_graph(6)) in ([1, 2, 3, 4, 5, 6],
                                                   [6, 5, 4, 3, 2, 1])


def test_longest_path_spider():
    # legs 4, 3, 2: best path joins the two longest legs through the center
    g = spider_graph([4, 3, 2])
    assert len(longest_path_in_tree(g)) == 8


def test_longest_path_rejects_non_tree():
    with pytest.raises(NotATree):
        longest_path_in_tree(Graph(3, [(1, 2), (2, 3), (1, 3)]))


@pytest.mark.parametrize("g", [
    Graph(0, []),
    Graph(5, [(1, 2), (3, 4), (4, 5)]),
    Graph(4, [(1, 2), (2, 3), (1, 3)]),
], ids=["empty", "forest", "triangle-and-isolated-vertex"])
def test_non_trees_are_rejected_by_every_tree_check(g):
    """The triangle plus an isolated vertex has n - 1 edges, so only the
    first sweep's reach shows it is no tree."""
    assert not g.is_tree()
    with pytest.raises(NotATree):
        longest_path_in_tree(g)
    with pytest.raises(NotATree):
        tree_to_width1_td(g)


@st.composite
def trees(draw):
    """A tree of one of the generator families, its vertices relabeled by
    a random permutation and its edges listed in a random order half of
    the time, so that ties and neighbor orders vary."""
    family = draw(st.sampled_from(["random-tree", "path", "star", "spider",
                                   "caterpillar", "ternary"]))
    if family == "random-tree":
        g = random_tree(draw(st.integers(1, 120)), draw(st.integers(0, 99)))
    elif family == "path":
        g = path_graph(draw(st.integers(1, 40)))
    elif family == "star":
        g = star_graph(draw(st.integers(0, 20)))
    elif family == "spider":
        g = spider_graph(draw(st.lists(st.integers(0, 6), max_size=5)))
    elif family == "caterpillar":
        g = caterpillar_graph(draw(st.integers(1, 12)),
                              draw(st.integers(0, 3)))
    else:
        g = ternary_tree(draw(st.integers(0, 4)))
    if draw(st.booleans()):
        label = [0] + draw(st.permutations(range(1, g.n + 1)))
        edges = [(label[u], label[v]) for u, v in g.edges()]
        g = Graph(g.n, draw(st.permutations(edges)))
    return g


@settings(max_examples=300, deadline=None)
@given(trees())
def test_longest_path_and_width1_td_match_the_five_walk_references(g):
    """The two sweeps and the DFS over their parents give the path and the
    decomposition that the tree checks, sweeps and own DFS gave: the same
    nodes, neighbor lists in the same order, clusters and graph_n."""
    assert longest_path_in_tree(g) == ref_longest_path_in_tree(g)
    td, ref = tree_to_width1_td(g), ref_tree_to_width1_td(g)
    assert td.nodes == ref.nodes
    assert list(td.neighbors.items()) == list(ref.neighbors.items())
    assert list(td.clusters.items()) == list(ref.clusters.items())
    assert td.graph_n == ref.graph_n


@st.composite
def graphs(draw):
    """A random graph on 0..12 vertices."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_tree_checks_match_the_component_reference(g):
    """On any graph, connectivity and tree-ness read from one sweep's
    reach agree with the component BFS they replaced, and the longest
    path raises NotATree exactly off trees."""
    assert g.is_connected() == (g.n == 0 or len(ref_component(g, 1)) == g.n)
    assert g.is_tree() == ref_is_tree(g)
    if ref_is_tree(g):
        assert longest_path_in_tree(g) == ref_longest_path_in_tree(g)
    else:
        with pytest.raises(NotATree):
            longest_path_in_tree(g)


def test_max_degree():
    assert max_degree(star_graph(7)) == 7
    assert max_degree(Graph(1, [])) == 0


@given(st.integers(2, 60), st.integers(0, 10))
def test_random_tree_shape(n, seed):
    g = random_tree(n, seed)
    assert g.is_tree()
    assert g.m_edges == n - 1


@given(st.integers(2, 40), st.integers(0, 10))
def test_longest_path_is_a_path(n, seed):
    g = random_tree(n, seed)
    path = longest_path_in_tree(g)
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert b in g.adj[a]
    # no pair of vertices is farther apart than the path's ends: a BFS from
    # every vertex, independent of the two sweeps under test
    for s in g.vertices:
        dist = [-1] * (n + 1)
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.adj[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert max(dist) <= len(path) - 1


@given(st.integers(2, 30), st.integers(0, 5), st.integers(0, 2 ** 30))
def test_cut_width_matches_naive_count(n, seed, mask):
    g = random_tree(n, seed)
    black = {v for v in g.vertices if mask >> (v - 1) & 1}
    expected = sum(1 for u, v in g.edges() if (u in black) != (v in black))
    assert cut_width(g, side_of(g, black)) == expected


@st.composite
def graphs_with_sides(draw):
    """A random graph on 0..20 vertices with a side array: random 0/1
    bytes, all 0, all 1, or one byte of 2 among them; index 0, unused,
    holds any byte, and the array is bytes or a bytearray."""
    n = draw(st.integers(0, 20))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    kind = draw(st.sampled_from(["random", "zeros", "ones", "two"]))
    if kind == "random":
        side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        side = [int(kind == "ones")] * n
    if kind == "two" and n:
        side[draw(st.integers(0, n - 1))] = 2
    side = bytearray([draw(st.integers(0, 255))] + side)
    return Graph(n, edges), draw(st.sampled_from([bytes, bytearray]))(side)


@settings(max_examples=400, deadline=None)
@given(graphs_with_sides())
def test_cut_width_matches_the_double_loop_reference(inst):
    """cut_width counts what the double loop over all neighbors counts,
    and raises PartitionInvalid on a side byte other than 0 or 1."""
    g, side = inst
    if max(side[1:], default=0) > 1:
        with pytest.raises(PartitionInvalid, match="0 or 1"):
            cut_width(g, side)
    else:
        assert cut_width(g, side) == double_loop_cut_width(g, side)
