from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from helpers import (
    acceptance_corpus,
    cluster_boundary_edges,
    current_vertices,
    debug_dump,
    decompose_by_node,
    hanging_pairs,
    holds,
    p6_td,
    per_vertex,
    ref_hanging_tree,
    restrict,
    restricted_td,
    set_validate,
    spider_fixture,
    two_pass_plabeling,
)
from treecut import engine, treedec
from treecut.engine import doubling_step, exact_size_cut_linear
from treecut.generators import (
    make_instance,
    path_graph,
    random_graph_with_td,
    star_graph,
)
from treecut.labeling import build_plabeling
from treecut.treedec import (
    TreeDecomposition,
    heaviest_path,
    make_nonredundant,
    normalize,
)
from treecut.util import OpsCounter


def test_p6_labels_follow_path_order():
    pl = two_pass_plabeling(p6_td())
    assert pl.n == 6
    # the path is walked end to end, so labels follow path order
    assert pl.vertex_of == [0, 5, 6, 4, 3, 2, 1]
    assert pl.path_nodes == [5, 4, 3, 2, 1]
    assert all(per_vertex(pl).is_path_vertex[v] for v in range(1, 7))
    assert pl.relative_weight() == 1
    blocks = pl.blocks()
    # every block is pure cluster vertices (no hanging part)
    assert all(a == r for a, r, _ in blocks.values())


def test_star_labeling_definitional():
    g = star_graph(4)
    td = make_instance("star", n=5)[1]
    pl = build_plabeling(normalize(td))
    view = per_vertex(pl)
    # all vertices lie in path clusters here, and each vertex's assigned
    # node is the path node nearest the start whose cluster holds it
    covered = set()
    for i in pl.path_nodes:
        for x in td.clusters[i]:
            if x not in covered:
                covered.add(x)
                assert view.path_node_of[x] == i
    assert g.n >= pl.n == len(covered) + sum(
        1 for v in range(1, g.n + 1)
        if holds(pl, v) and not view.is_path_vertex[v])


def test_spider_hanging_only_at_branch_node():
    g, td0 = spider_fixture()
    pl = build_plabeling(normalize(td0))
    blocks = pl.blocks()
    with_hang = [i for i, (a, r, _) in blocks.items() if r > a]
    # the heaviest path runs through two legs; the third leg hangs at the
    # single branch node (its innermost vertex is that node's own cluster
    # vertex, so seven of the eight leg vertices sit in the hanging part)
    assert len(with_hang) == 1
    a, r, _ = blocks[with_hang[0]]
    assert r - a == 7


def test_labeling_partitions_vertices():
    for seed in range(10):
        g, td = random_graph_with_td(18, 3, seed)
        pl = build_plabeling(normalize(td))
        seen = sorted(pl.vertex_of[1:])
        assert seen == sorted(set(seen))
        assert len(seen) == pl.n == g.n


def test_blocks_cluster_vertices_close_each_block():
    for seed in range(10):
        g, td = random_graph_with_td(20, 3, seed + 50)
        pl = build_plabeling(normalize(td))
        is_pv = per_vertex(pl).is_path_vertex
        for i, (a, r, b) in pl.blocks().items():
            for lab in range(a, r):
                assert not is_pv[pl.vertex_of[lab]]
            for lab in range(r, b + 1):
                assert is_pv[pl.vertex_of[lab]]


def test_boundary_edges_p6():
    g = path_graph(6)
    td = p6_td()
    assert sorted(cluster_boundary_edges(g, td, 3)) == [(2, 3), (3, 4), (4, 5)]


def test_boundary_edges_empty_cluster():
    g = path_graph(6)
    td = restrict(p6_td(), vertex_filter={1, 2, 3})
    assert cluster_boundary_edges(g, td, 5) == []


def test_boundary_edges_star():
    g = star_graph(4)
    td = make_instance("star", n=5)[1]
    # every cluster holds the center, so each touches all four edges
    for i in td.nodes:
        assert len(cluster_boundary_edges(g, td, i)) == 4


def test_decompose_p6_middle():
    g = path_graph(6)
    td = p6_td()
    pl = two_pass_plabeling(td)
    parts = decompose_by_node(g, td, pl, 2)  # cluster {2,3}
    assert {3, 4, 5, 6} in parts
    assert {2} in parts
    assert {1} in parts
    assert len(parts) == 3
    _check_parts_against_boundary(g, td, pl, 2)


def _check_parts_against_boundary(g, td, pl, i):
    parts = decompose_by_node(g, td, pl, i)
    everything = set()
    for p in parts:
        assert not everything & p
        everything |= p
    assert everything == set(g.vertices)
    removed = set(cluster_boundary_edges(g, td, i))
    owner = {}
    for k, p in enumerate(parts):
        for v in p:
            owner[v] = k
    for u, v in g.edges():
        if (u, v) not in removed:
            assert owner[u] == owner[v]


def test_decompose_spider_branch_node():
    g, td0 = spider_fixture()
    td = make_nonredundant(td0)
    pl = build_plabeling(normalize(td))
    branch = [i for i, (a, r, _) in pl.blocks().items() if r > a][0]
    parts = decompose_by_node(g, td, pl, branch)
    assert any(len(p) == 8 for p in parts)  # the hanging leg survives intact
    _check_parts_against_boundary(g, td, pl, branch)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 24), st.integers(1, 3), st.integers(0, 500))
def test_decompose_property(n, width, seed):
    g, td0 = random_graph_with_td(n, width, seed)
    td = make_nonredundant(td0)
    pl = build_plabeling(normalize(td))
    for i in pl.path_nodes:
        _check_parts_against_boundary(g, td, pl, i)


def test_debug_dump_golden_p6():
    pl = two_pass_plabeling(p6_td())
    assert debug_dump(pl) == (
        "node 5: hanging - cluster 1..2\n"
        "node 4: hanging - cluster 3..3\n"
        "node 3: hanging - cluster 4..4\n"
        "node 2: hanging - cluster 5..5\n"
        "node 1: hanging - cluster 6..6"
    )


def test_debug_dump_golden_spider():
    _, td0 = spider_fixture()
    pl = two_pass_plabeling(make_nonredundant(td0))
    lines = debug_dump(pl).splitlines()
    assert len(lines) == 17  # two legs plus the center's own node
    assert sum("hanging -" not in line for line in lines) == 1


def test_restricted_td_reproduces_current_state():
    g, td0 = random_graph_with_td(25, 3, 7)
    pl = build_plabeling(normalize(td0))
    again = restricted_td(pl)
    assert set_validate(g, again, vertices=set(current_vertices(pl))).ok
    # rebuilding on the explicit restriction gives the same assignments;
    # its node ids are pl's nodes, the reference's nodes its positions
    ids = again._form.ids
    at = {i: p for p, i in enumerate(again.nodes, 1)}
    fresh = two_pass_plabeling(again, [at[i] for i in pl.path_nodes])
    view, fresh_view = per_vertex(pl), per_vertex(fresh)
    assert [ids[p] if p else 0 for p in fresh_view.path_node_of] == \
        view.path_node_of
    assert [bool(b) for b in fresh_view.is_path_vertex] == \
        [bool(b) for b in view.is_path_vertex]


def _assert_same_arrays(pl, ref):
    assert pl.n == ref.n
    assert pl.vertex_of == ref.vertex_of
    assert pl.flags == ref.flags
    assert pl.ends == ref.ends
    assert pl.ends.typecode == "l" and len(pl.ends) == len(pl.path_nodes)
    view, ref_view = per_vertex(pl), per_vertex(ref)
    assert view.label_of == ref_view.label_of
    assert view.path_node_of == ref_view.path_node_of
    assert view.is_path_vertex == ref_view.is_path_vertex
    assert pl.path_nodes == ref.path_nodes
    assert set(pl.hang) <= set(pl.path_nodes)
    assert hanging_pairs(pl) == hanging_pairs(ref)


def _labelings_agree(td):
    """The labeling a cut builds from td's normalization record equals the
    two-pass reference on the path it labels: the same arrays, path and
    hanging trees, with the path vertices exactly the union of the path
    clusters. Off the covering route the ops agree too, with the
    reference's heaviest path taken from a second record of td. Returns
    the labeling."""
    rec, twin = normalize(td), normalize(td)
    new_ops, ref_ops = OpsCounter(), OpsCounter()
    pl = build_plabeling(rec, ops=new_ops)
    path, _ = treedec._record_path(twin, ref_ops)
    ref = two_pass_plabeling(twin.form, path, ops=ref_ops)
    _assert_same_arrays(pl, ref)
    if rec.vertex_of is None:
        assert new_ops.total == ref_ops.total
    on_path = set()
    for i in pl.path_nodes:
        on_path.update(twin.form.clusters[i])
    assert {x for x, b in enumerate(per_vertex(pl).is_path_vertex)
            if b} == on_path
    return pl


def test_labeling_matches_two_pass_reference_on_corpus():
    """On every corpus decomposition the labeling a cut builds from its
    normalization record equals the two-pass reference on the path it
    labels, in the orientation it uses: from the smallest node on covering
    inputs, which the corpus has too."""
    covering = set()
    for _, _, td in acceptance_corpus():
        _labelings_agree(td)
        covering.add(normalize(td).vertex_of is not None)
    assert covering == {False, True}


def test_hanging_spans_partition_the_preorder_off_the_path():
    """On every corpus decomposition, the labeling holds each path node's
    hanging trees as one or two non-empty spans of its preorder, the later
    span first; a node without a hanging tree in the two-pass reference
    gets no key; and the spans partition the preorder positions of the
    nodes off the path. A covering labeling holds no preorder and no
    spans. Both span shapes occur."""
    shapes = set()
    for _, _, td in acceptance_corpus():
        rec, twin = normalize(td), normalize(td)
        pl = build_plabeling(rec)
        if pl.order is None:
            assert pl.parents is None and pl.hang == {}
            continue
        path, _ = treedec._record_path(twin, OpsCounter())
        ref = two_pass_plabeling(twin.form, path)
        assert set(pl.hang) == {i for i, pairs in hanging_pairs(ref) if pairs}
        assert len(pl.order) == len(pl.parents) == len(twin.nodes)
        positions = []
        for spans in pl.hang.values():
            assert len(spans) in (2, 4)
            shapes.add(len(spans))
            if len(spans) == 4:
                assert spans[3] < spans[0]
            for s, e in zip(spans[0::2], spans[1::2]):
                assert 0 < s < e <= len(pl.order)
                positions.extend(range(s, e))
        on_path = set(pl.path_nodes)
        assert sorted(positions) == [q for q, i in enumerate(pl.order)
                                     if i not in on_path]
    assert shapes == {2, 4}


def _hanging_trees_agree(pl, m):
    """Through the doubling steps of a cut of size m from labeling `pl`,
    PLabeling.hanging_tree lists each path node's hanging trees as the
    reference does from the pairs span_pairs rebuilds, re-rooted at the
    node of smallest id through a node-to-position dict: the same
    positions, parents and renumbered clusters, so equal reduced weights
    tie in the same order, and the same count of work; the root is the
    node of smallest id. Returns whether each tree kept its path node as
    the root."""
    kept = set()
    while m:
        blocks = pl.blocks()
        for i in pl.hang:
            a, r, _ = blocks[i]
            nodes, parent, clusters = ref_hanging_tree(pl, i, a, r)
            ops = OpsCounter()
            assert pl.hanging_tree(i, a, r, ops) == (parent, clusters)
            assert ops.total == sum(len(pl.clusters[j]) + 1
                                    for j in nodes if j != i)
            assert pl.ids[nodes[0]] == min(map(pl.ids.__getitem__, nodes))
            kept.add(nodes[0] == i)
        b = []
        if doubling_step(pl, m, b).kind == "direct":
            break
        m -= len(b)
    return kept


def test_hanging_tree_matches_the_rerooted_pair_listing():
    """On every corpus decomposition, and on each remainder the doubling
    steps of a bisection leave, the hanging trees are listed as the
    reference lists them (see _hanging_trees_agree). Trees that keep the
    path node as their root and trees re-rooted below it both occur."""
    kept = set()
    for _, g, td in acceptance_corpus():
        kept |= _hanging_trees_agree(build_plabeling(normalize(td)), g.n // 2)
    assert kept == {False, True}


@st.composite
def hanging_paths(draw):
    """A normalized decomposition with hanging trees, node ids shuffled into
    a sparse range."""
    n = draw(st.integers(3, 40))
    if draw(st.booleans()):
        g, td = random_graph_with_td(n, draw(st.integers(1, 4)),
                                     draw(st.integers(0, 10 ** 6)))
    else:
        g, td = make_instance("random-tree", n=n,
                              seed=draw(st.integers(0, 10 ** 6)))
    td = make_nonredundant(td)
    old = list(td.nodes)
    ids = draw(st.permutations(range(3 * len(old))))[:len(old)]
    new_id = dict(zip(old, ids))
    return TreeDecomposition([new_id[i] for i in old],
                             [(new_id[a], new_id[b]) for a, b in td.edges()],
                             {new_id[i]: td.clusters[i] for i in old}, g.n)


@settings(max_examples=150, deadline=None)
@given(hanging_paths())
def test_labeling_matches_two_pass_reference_random(td):
    pl = _labelings_agree(td)
    path, _ = heaviest_path(td)
    if normalize(td).vertex_of is not None:
        path.reverse()  # a covering path is labeled from its smallest node
    assert [pl.ids[i] for i in pl.path_nodes] == path


@settings(max_examples=150, deadline=None)
@given(hanging_paths(), st.data())
def test_hanging_tree_matches_the_rerooted_pair_listing_random(td, data):
    """With node ids shuffled into a sparse range, so that the smallest id
    need not sit at the smallest position, the hanging trees of a cut of
    any size are listed as the reference lists them, rooted at the node of
    smallest id."""
    m = data.draw(st.integers(1, td.graph_n))
    _hanging_trees_agree(build_plabeling(normalize(td)), m)


def test_reference_strategy_has_hanging_trees():
    """The random differential test above sees hanging trees."""
    found = set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(hanging_paths())
    def probe(td):
        pl = build_plabeling(normalize(td))
        if any(pl.hang.values()):
            found.add("hanging")

    probe()
    assert found == {"hanging"}


_CORPUS = []  # (g, td, the sizes whose first step splits) per instance


def _split_sizes(g, td):
    """The sizes m whose first step on td's fresh labeling is not direct:
    no path-cluster label has its m-shift in a path cluster."""
    flags = build_plabeling(normalize(td)).flags[1:]
    x = int.from_bytes(flags, "little")
    return [m for m in range(1, g.n)
            if not x & int.from_bytes(flags[m:] + flags[:m], "little")]


@st.composite
def valid_cuts(draw):
    """A valid instance and a size m: half the draws take a corpus instance
    and an m whose first step splits at a path node, the others any m in
    0..n on a corpus instance or one drawn at random."""
    if not _CORPUS:
        _CORPUS.extend((g, td, _split_sizes(g, td))
                       for _, g, td in acceptance_corpus())
    if draw(st.booleans()):
        g, td, split = draw(st.sampled_from([c for c in _CORPUS if c[2]]))
        return g, td, draw(st.sampled_from(split))
    kind = draw(st.sampled_from(["corpus", "ternary", "random-tree",
                                 "random-td"]))
    if kind == "corpus":
        g, td, _ = draw(st.sampled_from(_CORPUS))
    elif kind == "ternary":
        g, td = make_instance("ternary", h=draw(st.integers(1, 6)))
    elif kind == "random-tree":
        g, td = make_instance("random-tree", n=draw(st.integers(1, 200)),
                              seed=draw(st.integers(0, 10 ** 6)))
    else:
        g, td = random_graph_with_td(draw(st.integers(3, 100)),
                                     draw(st.integers(1, 4)),
                                     draw(st.integers(0, 10 ** 6)))
    return g, td, draw(st.integers(0, g.n))


def _shuffled_cut(g, td, m, rnd):
    """exact_size_cut_linear(g, td, m) with the vertices of each hanging
    part of the fresh labeling shuffled by `rnd` before the steps run,
    after checking that every label of a hanging part has flag 0. Returns
    the cut and how many hanging parts hold two labels or more."""
    build, moved = engine.build_plabeling, []

    def shuffled(norm, ops):
        pl = build(norm, ops=ops)
        for a, r, _ in pl.blocks().values():
            assert pl.flags[a:r] == bytes(r - a)
            part = pl.vertex_of[a:r]
            rnd.shuffle(part)
            pl.vertex_of[a:r] = part
            moved.append(r - a > 1)
        return pl

    with mock.patch.object(engine, "build_plabeling", shuffled):
        b, report = exact_size_cut_linear(g, td, m)
    return b, report, sum(moved)


@settings(max_examples=120, deadline=None)
@given(valid_cuts(), st.randoms(use_true_random=False))
def test_order_inside_a_hanging_part_decides_no_cut(cut, rnd):
    """The labeling may list a hanging part in any order: on a fresh
    labeling of a valid instance every hanging label has flag 0, and
    shuffling each hanging part before the steps run leaves the sorted B,
    the step records and the ops as they were."""
    g, td, m = cut
    b, report = exact_size_cut_linear(g, td, m)
    b2, report2, _ = _shuffled_cut(g, td, m, rnd)
    assert b2 == b  # both sorted
    assert report2.steps == report.steps
    assert report2.ops == report.ops


def test_shuffle_strategy_reaches_split_steps():
    """The shuffle test above sees cuts whose first step splits at a node
    while some hanging part of two labels or more was shuffled."""
    found = set()

    @settings(max_examples=60, deadline=None, database=None)
    @given(valid_cuts(), st.randoms(use_true_random=False))
    def probe(cut, rnd):
        _, report, moved = _shuffled_cut(*cut, rnd)
        if moved and report.steps and report.steps[0].kind != "direct":
            found.add("split")

    probe()
    assert found == {"split"}
