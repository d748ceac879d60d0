import copy
import json
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import (
    Phase,
    assume,
    find,
    given,
    settings,
    strategies as st,
)

from helpers import (
    acceptance_corpus,
    brute_force_heaviest_path,
    hanging_pairs,
    is_nonredundant_path,
    orient_path,
    p6_td,
    path_weight,
    per_vertex,
    RedundantPath,
    ref_path,
    ref_weight_sweep,
    restrict,
    run_checked,
    set_validate,
    two_pass_plabeling,
    uf_make_nonredundant,
    vertex_count,
    y_shaped_td,
)
from treecut import engine, treedec
from treecut.engine import doubling_step, exact_size_cut_linear
from treecut.errors import DecompositionFormatError, EmptyDecomposition
from treecut.generators import (
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
    random_tree,
    spider_graph,
    star_graph,
    ternary_tree,
)
from treecut.graph import Graph, longest_path_in_tree
from treecut.labeling import PLabeling, build_plabeling
from treecut.treedec import (
    TreeDecomposition,
    WeightReport,
    heaviest_path,
    make_nonredundant,
    normalize,
    tree_to_width1_td,
    validate,
)
from treecut.util import OpsCounter


def test_validate_p6():
    rep = validate(path_graph(6), p6_td())
    assert rep.ok
    assert rep.width == 1


def test_validate_missing_edge_cluster():
    td = p6_td()
    # drop the {2,3} cluster: edge (2,3) has no home
    broken = TreeDecomposition([1, 3, 4, 5], [(1, 3), (3, 4), (4, 5)],
                               {i: td.clusters[i] for i in (1, 3, 4, 5)}, 6)
    rep = validate(path_graph(6), broken)
    assert not rep.edge_cover_ok
    assert "(2, 3)" in rep.witness


def test_validate_disconnected_occurrences():
    clusters = {1: [1, 2, 4], 2: [2, 3], 3: [3, 4]}
    td = TreeDecomposition([1, 2, 3], [(1, 2), (2, 3)], clusters, 4)
    rep = validate(path_graph(4), td)
    assert not rep.connectivity_ok
    assert "4" in rep.witness


def test_size_and_width():
    assert p6_td().size() == 15
    assert p6_td().width() == 1
    single = TreeDecomposition([1], [], {1: list(range(1, 8))}, 7)
    assert single.size() == 8
    assert single.width() == 6


def _public_view(td):
    return td.nodes, td.neighbors, td.clusters, td.graph_n


def test_json_round_trip():
    """Saved and loaded again, a decomposition has the same nodes,
    neighbor lists, clusters and graph_n, also where its edges were given
    in another order than edges() lists them, some turned."""
    y = y_shaped_td()
    edges = [(9, 1), (4, 5), (1, 6), (3, 4), (7, 6), (2, 1), (2, 3), (8, 7)]
    turned = TreeDecomposition(y.nodes[::-1], edges, y.clusters, y.graph_n)
    assert turned.neighbors[1] == [9, 6, 2]
    for td in (p6_td(), y, turned):
        back = TreeDecomposition.from_json(td.to_json())
        assert _public_view(back) == _public_view(td)
        assert sorted(back.edges()) == sorted(td.edges())


def test_a_decomposition_needs_a_node():
    with pytest.raises(DecompositionFormatError,
                       match="^a decomposition needs at least one node$"):
        TreeDecomposition([], [], {}, 0)
    with pytest.raises(DecompositionFormatError,
                       match="^a decomposition needs at least one node$"):
        TreeDecomposition.from_json('{"nodes": [], "edges": []}')


@pytest.mark.parametrize("entry", ["a", 1.5, True])
@pytest.mark.parametrize("graph_n", [3, None])
def test_from_json_rejects_non_int_cluster_entries(entry, graph_n):
    obj = {"nodes": [{"id": 1, "cluster": [2, entry]},
                     {"id": 2, "cluster": [2, 3]}],
           "edges": [[1, 2]]}
    if graph_n is not None:
        obj["graph_n"] = graph_n
    with pytest.raises(DecompositionFormatError):
        TreeDecomposition.from_json(json.dumps(obj))


@pytest.mark.parametrize("cluster, message", [
    ([1, "a"], "vertex 'a' in cluster 1 is not an int in 1..1"),
    ([True], "vertex True in cluster 1 is not an int in 1..0"),
    ([1, 2.5], "vertex 2.5 in cluster 1 is not an int in 1..1"),
    ([-3], "vertex -3 in cluster 1 is not an int in 1..0"),
    (5, "cluster 1 is not a list of vertices"),
])
def test_from_json_without_graph_n_names_the_bad_cluster(cluster, message):
    """A file without "graph_n" defaults it to the largest int entry of
    the list clusters, at least 0, so the constructor, not the default,
    names what is wrong."""
    text = json.dumps({"nodes": [{"id": 1, "cluster": cluster}],
                       "edges": []})
    with pytest.raises(DecompositionFormatError) as err:
        TreeDecomposition.from_json(text)
    assert str(err.value) == message


NON_INT_IDS = ["b", 2.0, True, [2]]


@pytest.mark.parametrize("node_id", NON_INT_IDS)
def test_from_json_rejects_non_int_node_ids(node_id):
    obj = {"nodes": [{"id": 1, "cluster": [1, 2]},
                     {"id": node_id, "cluster": [2, 3]}],
           "edges": [[1, node_id]]}
    with pytest.raises(DecompositionFormatError):
        TreeDecomposition.from_json(json.dumps(obj))


@pytest.mark.parametrize("edges, message", [
    ([[1, 2, 3]], "bad tree edge [1, 2, 3]"),
    ([5], "bad tree edge 5"),
    (5, "edges must be a list of node pairs, not int"),
], ids=["three-ends", "bare-int", "int-edges"])
def test_from_json_rejects_malformed_edges(edges, message):
    obj = {"nodes": [{"id": 1, "cluster": [1, 2]},
                     {"id": 2, "cluster": [2, 3]}],
           "edges": edges}
    with pytest.raises(DecompositionFormatError) as err:
        TreeDecomposition.from_json(json.dumps(obj))
    assert str(err.value) == message


@pytest.mark.parametrize("node_id", NON_INT_IDS)
def test_constructor_rejects_non_int_node_ids(node_id):
    with pytest.raises(DecompositionFormatError):
        TreeDecomposition([1, node_id], [(1, node_id)], {1: [1, 2]}, 3)


@pytest.mark.parametrize("args", [
    ([1, 2], [([1], 2)], {1: [1], 2: [1]}, 1),
    ([1], [], {1: [[1]]}, 1),
    ([1, 2], [(1, 2, 3)], {1: [1], 2: [1]}, 1),
    ([1, 2], [5], {1: [1], 2: [1]}, 1),
])
def test_constructor_rejects_unhashable_entries(args):
    with pytest.raises(DecompositionFormatError):
        TreeDecomposition(*args)


@pytest.mark.parametrize("args, what", [
    (([1], [], {1: 5}, 3), "cluster 1"),
    (([1], [], {1: [1]}, None), "graph_n"),
    (([1], [], {1: [1]}, "3"), "graph_n"),
    (([1, 2], iter([(1, 2)]), {1: [1], 2: [1, 2]}, 2), "edges"),
    (([1, 2], [(1, 2)], [[1], [1, 2]], 2), "clusters"),
], ids=["cluster-not-iterable", "graph_n-None", "graph_n-str",
        "edges-iterator", "clusters-list"])
def test_constructor_rejects_malformed_containers(args, what):
    with pytest.raises(DecompositionFormatError, match=what):
        TreeDecomposition(*args)


@pytest.mark.parametrize("args, message", [
    (([1, 2, 1], [(1, 2), (2, 1)], {1: [1], 2: [1]}, 1),
     "duplicate node ids"),
    (([1, 2, 3], [(1, 2)], {1: [1], 2: [1], 3: [1]}, 1),
     "node/edge counts do not form a tree"),
    (([1, 2, 3, 4], [(1, 2), (2, 3), (3, 1)],
      {1: [1], 2: [1], 3: [1], 4: [1]}, 1),
     "decomposition tree is not connected"),
    (([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3, 2]}, 3),
     "duplicate vertex in cluster 2"),
], ids=["duplicate-node", "too-few-edges", "cycle-and-isolated-node",
        "duplicate-vertex"])
def test_constructor_rejects_structural_errors(args, message):
    with pytest.raises(DecompositionFormatError) as err:
        TreeDecomposition(*args)
    assert str(err.value) == message


def test_trusted_decompositions_pass_the_validating_constructor(monkeypatch):
    """Every decomposition the package builds unchecked comes out the same
    from the validating constructor, the positional form included: those
    `_trusted` builds, and those the public make_nonredundant wraps around
    normalization's contracted form. The order of a wrapped decomposition's
    neighbor lists is that of the contraction's edges, which the
    union-find reference test pins."""
    trusted = TreeDecomposition._trusted.__func__
    callers = set()

    def checked(cls, nodes, edges, clusters, graph_n):
        td = trusted(cls, nodes, edges, clusters, graph_n)
        again = TreeDecomposition(nodes, edges, clusters, graph_n)
        assert again.nodes == td.nodes
        assert again.neighbors == td.neighbors
        assert again.clusters == td.clusters
        assert again.graph_n == td.graph_n
        assert again._form == td._form
        callers.add(sys._getframe(1).f_code.co_name)
        return td

    monkeypatch.setattr(TreeDecomposition, "_trusted", classmethod(checked))
    converted = 0
    for label, g, td in acceptance_corpus():
        run_checked(g, td, g.n // 2)
        out = make_nonredundant(td)
        if out is td:
            continue
        converted += 1
        again = TreeDecomposition(out.nodes, list(out.edges()), out.clusters,
                                  out.graph_n)
        assert again.nodes == out.nodes
        assert ({i: sorted(nbrs) for i, nbrs in again.neighbors.items()}
                == {i: sorted(nbrs) for i, nbrs in out.neighbors.items()})
        assert list(again.neighbors) == list(out.neighbors)
        assert again.clusters == out.clusters
        assert again.graph_n == out.graph_n
    assert callers == {"tree_to_width1_td", "grid_td", "random_graph_with_td"}
    assert converted


@st.composite
def redundant_tds(draw):
    """A random decomposition with nested nodes spliced in (edges subdivided
    by the intersection of their ends, leaves holding a prefix of their
    neighbour's cluster) and node ids shuffled."""
    g, td = random_graph_with_td(draw(st.integers(2, 30)),
                                 draw(st.integers(1, 4)),
                                 draw(st.integers(0, 1000)))
    edges = list(td.edges())
    clusters = dict(td.clusters)
    nxt = len(td.nodes) + 1
    if edges:
        for a, b in draw(st.lists(st.sampled_from(edges), max_size=4,
                                  unique=True)):
            edges.remove((a, b))
            edges += [(a, nxt), (nxt, b)]
            clusters[nxt] = [x for x in clusters[a] if x in clusters[b]]
            nxt += 1
    for i in draw(st.lists(st.integers(1, nxt - 1), max_size=4)):
        clusters[nxt] = clusters[i][:draw(st.integers(0, len(clusters[i])))]
        edges.append((i, nxt))
        nxt += 1
    new_id = [0] + draw(st.permutations(range(1, nxt)))
    return g, TreeDecomposition(
        [new_id[i] for i in range(1, nxt)],
        [(new_id[a], new_id[b]) for a, b in edges],
        {new_id[i]: c for i, c in clusters.items()}, g.n)


def _ref_heaviest_path(td):
    """heaviest_path as the two cluster-reading reference sweeps find it."""
    a = ref_weight_sweep(td, min(td.nodes))[0]
    b, weight, parent = ref_weight_sweep(td, a)
    return ref_path(a, b, parent), WeightReport(
        weight, Fraction(weight, td.graph_n))


def _handed_path(rec, graph_n):
    """What heaviest path makes of normalization's record `rec` of a
    decomposition over 1..graph_n, in the public heaviest_path's terms:
    the path from the heavy end, by node id, and its weight report. The
    path is the one the labeling gets, turned around on a covering
    record, whose walk runs from the smallest node and weighs graph_n;
    otherwise the weight is that of the second sweep on a copy of the
    handed records, and the path starts at the head of the handed chain."""
    form = rec.form
    if rec.vertex_of is None:
        fresh, chain = rec.first_sweep
        _, weight, _ = treedec._sweep_from(form, copy.copy(fresh), chain)
    path, preorder = treedec._record_path(rec, OpsCounter())
    assert (preorder is None) == (rec.vertex_of is not None)
    if preorder is None:
        path, weight = path[::-1], graph_n
    else:
        assert path[0] == chain[0]
    return ([form.ids[i] for i in path],
            WeightReport(weight, Fraction(weight, graph_n)))


def _check_normalized(td):
    """normalize leaves no nested adjacent pair, and the record it hands to
    heaviest path gives the same path as the sweeps from scratch on the
    public make_nonredundant's result, and as the two reference sweeps.
    Only a covering record lacks the first sweep's records. Returns
    whether the input passed through."""
    rec = normalize(td)
    out = make_nonredundant(td)
    for a, b in out.edges():
        ca, cb = set(out.clusters[a]), set(out.clusters[b])
        assert not ca <= cb and not cb <= ca
    assert (rec.form is td._form) == (out is td)
    assert (rec.first_sweep is None) == (rec.vertex_of is not None)
    handed = _handed_path(rec, td.graph_n)
    assert heaviest_path(out) == handed == _ref_heaviest_path(out)
    return out is td


@st.composite
def tied_trees(draw):
    """Width-1 decompositions of stars, spiders and random trees, whose
    path weights tie often, with the tree's edges, the decomposition's
    edges and its node ids in a random order. Normalization passes every
    one through."""
    kind = draw(st.sampled_from(["star", "spider", "random"]))
    if kind == "star":
        g = star_graph(draw(st.integers(1, 30)))
    elif kind == "spider":
        g = spider_graph(draw(st.lists(st.integers(1, 5), min_size=1,
                                       max_size=6)))
    else:
        g = random_tree(draw(st.integers(2, 60)), draw(st.integers(0, 1000)))
    td = tree_to_width1_td(Graph(g.n, draw(st.permutations(list(g.edges())))))
    new_id = [0] + draw(st.permutations(range(1, len(td.nodes) + 1)))
    return TreeDecomposition(
        [new_id[i] for i in td.nodes],
        [(new_id[a], new_id[b])
         for a, b in draw(st.permutations(list(td.edges())))],
        {new_id[i]: c for i, c in td.clusters.items()}, td.graph_n)


@settings(max_examples=300, deadline=None)
@given(tied_trees())
def test_handed_first_sweep_finds_the_reference_path_on_tied_trees(td):
    """On a pass-through tree with many tied path weights, heaviest path
    from normalization's record, whose parents it finds by scanning the
    pass order and its own preorder backward, has the path and weight of
    the two reference sweeps."""
    rec = normalize(td)
    assert rec.form is td._form
    assert _handed_path(rec, td.graph_n) == _ref_heaviest_path(td)


def test_chain_reads_each_preorder_position_at_most_once():
    """The backward scan behind the re-rooted chain and the swept path
    reads each preorder position at most once, so it stays linear also on
    a path, where the chain from the far end is every node."""
    reads = []

    class Counted(list):
        def __getitem__(self, k):
            reads.append(k)
            return list.__getitem__(self, k)

    td = tree_to_width1_td(path_graph(300))
    _, _, order, parents = treedec._node_dfs(
        td.neighbors, dict.fromkeys(td.nodes, 1), min(td.nodes))
    assert treedec._chain(Counted(order), parents, len(order) - 1) == \
        order[::-1]
    assert sorted(reads) == list(range(len(order)))


def _check_handed_records(td):
    """On an input with cluster connectivity whose record does not cover,
    the record hands the first sweep over the normalized decomposition:
    the fresh counts of a recording sweep over its positional form from
    its smallest node, by position, and the chain from that sweep's
    endpoint up to the smallest node. Returns whether the input
    contracted."""
    rec = normalize(td)
    if rec.vertex_of is not None:
        return False
    assert rec.first_sweep == treedec._recording_sweep(rec.form)
    return rec.form is not td._form


def test_contracting_records_match_a_recording_sweep_on_the_corpus():
    assert any([_check_handed_records(td)
                for _, _, td in acceptance_corpus()])


@settings(max_examples=150, deadline=None)
@given(redundant_tds())
def test_contracting_records_match_a_recording_sweep_random(inst):
    g, td = inst
    assert validate(g, td).ok
    _check_handed_records(td)


def _check_heavy_end(td):
    """On a contracting input the handed chain starts at the heavy end, the
    endpoint of the node sweep over the output on the handed fresh counts
    from node 1.
    normalize runs that sweep only when the greatest path weight is tied;
    otherwise it takes the one node of that weight. Returns None on a
    pass-through, else whether the greatest weight was tied."""
    with mock.patch.object(treedec, "_node_dfs",
                           wraps=treedec._node_dfs) as sweep:
        rec = normalize(td)
    if rec.form is td._form:
        return None
    fresh, chain = rec.first_sweep
    end, top, order, parents = treedec._node_dfs(rec.form.neighbors, fresh, 1)
    assert chain == treedec._chain(order, parents, order.index(end))
    weight = {None: 0}  # by node, from the root's parent on
    for i, p in zip(order, parents):
        weight[i] = weight[p] + fresh[i]
    tied = [weight[i] for i in order].count(top) > 1
    assert sweep.call_count == tied
    return tied


def test_heavy_end_matches_the_node_sweep_on_the_corpus():
    """Every contracting corpus instance; both the unique maximum and the
    tie reach the check."""
    seen = {_check_heavy_end(td) for _, _, td in acceptance_corpus()}
    assert {True, False} <= seen


@settings(max_examples=150, deadline=None)
@given(redundant_tds())
def test_heavy_end_matches_the_node_sweep_random(inst):
    _check_heavy_end(inst[1])


@st.composite
def shuffled_tds(draw):
    """redundant_tds() instances with their nodes and edges listed in a
    random order, edges turned at random and, at random, the node ids
    mapped to sparse negative ones or the decomposition contracted by
    make_nonredundant; with an m in 1..n."""
    g, td = draw(redundant_tds())
    f = (lambda i: 7 * i - 1000) if draw(st.booleans()) else (lambda i: i)
    edges = [(f(b), f(a)) if draw(st.booleans()) else (f(a), f(b))
             for a, b in draw(st.permutations(list(td.edges())))]
    td = TreeDecomposition([f(i) for i in draw(st.permutations(td.nodes))],
                           edges, {f(i): c for i, c in td.clusters.items()},
                           td.graph_n)
    if draw(st.booleans()):
        td = make_nonredundant(td)
    return g, td, draw(st.integers(1, g.n))


@settings(max_examples=150, deadline=None)
@given(shuffled_tds())
def test_json_round_trip_rebuilds_the_neighbor_lists(inst):
    """from_json(to_json(td)) has td's nodes, neighbor lists, clusters and
    graph_n, and is cut as td is: the same B and the same step records."""
    g, td, m = inst
    back = TreeDecomposition.from_json(td.to_json())
    assert _public_view(back) == _public_view(td)
    b, report = exact_size_cut_linear(g, td, m)
    b_back, report_back = exact_size_cut_linear(g, back, m)
    assert b_back == b
    assert report_back.steps == report.steps


def _reachable(pl):
    """Ids of the containers reachable from labeling `pl` through its slots
    and through lists, tuples, dicts and sets."""
    seen = set()
    stack = [getattr(pl, name) for name in PLabeling.__slots__]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not isinstance(obj, (list, tuple, dict, set)):
            continue
        seen.add(id(obj))
        stack.extend(obj.values() if isinstance(obj, dict) else obj)
        if isinstance(obj, dict):
            stack.extend(obj)
    return seen


@settings(max_examples=80, deadline=None)
@given(redundant_tds(), st.data())
def test_a_cut_keeps_no_neighbor_lists_past_the_labeling(inst, data):
    """From its first doubling step on, a cut of a contracting input holds
    neither normalization's record nor, through its labeling, any of the
    contracted output's neighbor lists; and the caller's decomposition
    comes out unchanged."""
    g, td = inst
    m = data.draw(st.integers(1, g.n))
    before = copy.deepcopy((td.nodes, td.neighbors, td.clusters, td.graph_n))
    seen = {"steps": 0}

    def label(norm, ops):
        seen["record"] = weakref.ref(norm)
        seen["contracted"] = norm.form is not td._form
        nbrs = norm.form.neighbors
        seen["neighbors"] = [nbrs, *nbrs]
        return build_plabeling(norm, ops=ops)

    def step(pl, m, b, ops):
        seen["steps"] += 1
        assert seen["record"]() is None
        reachable = _reachable(pl)
        assert not any(id(x) in reachable for x in seen["neighbors"])
        return doubling_step(pl, m, b, ops=ops)

    with mock.patch.object(engine, "build_plabeling", label), \
            mock.patch.object(engine, "doubling_step", step):
        exact_size_cut_linear(g, td, m)
    assume(seen["contracted"])
    assert seen["steps"] >= 1
    assert (td.nodes, td.neighbors, td.clusters, td.graph_n) == before


def test_corpus_cuts_run_no_recording_sweep(monkeypatch):
    """Normalization hands every cut its first sweep, so no cut reads the
    clusters again for one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a cut ran a recording sweep")

    monkeypatch.setattr(treedec, "_recording_sweep", refuse)
    for _, g, td in acceptance_corpus():
        exact_size_cut_linear(g, td, g.n // 2)


def _check_node_sweep(td, rng):
    """On a decomposition with cluster connectivity, through its positional
    form, its positions read as node ids: the recording sweep from the
    smallest node ends where the reference sweep does, with each node's
    fresh count |C_i \\ C_parent| under the reference's parents, and its
    chain is the reference's path from its end up to the smallest node.
    From its end and from a random node, the node sweep on its counts
    re-rooted along the chain from there finds the reference's endpoint,
    weight and path, and returns every node once in a preorder with the
    reference's parents."""
    form, root = td._form, min(td.nodes)
    ids, at = form.ids, {i: p for p, i in enumerate(td.nodes, 1)}
    fresh, chain = treedec._recording_sweep(form)
    end, _, up = ref_weight_sweep(td, root)
    assert [ids[p] for p in chain] == ref_path(root, end, up)[::-1]
    assert len(fresh) == len(td.nodes) + 1
    for i in td.nodes:
        above = set(td.clusters[up[i]]) if i != root else set()
        assert fresh[at[i]] == len(set(td.clusters[i]) - above)
    for start in (end, rng.choice(td.nodes)):
        path, weight, (order, parents) = treedec._sweep_from(
            form, copy.copy(fresh),
            [at[i] for i in ref_path(root, start, up)[::-1]])
        path, order = [ids[p] for p in path], [ids[p] for p in order]
        parents = [None, *(ids[p] for p in parents[1:])]
        ref_end, ref_w, ref_parent = ref_weight_sweep(td, start)
        assert (path[-1], weight) == (ref_end, ref_w)
        assert path == ref_path(start, ref_end, ref_parent)
        assert order[0] == start and parents[0] is None
        assert sorted(order) == sorted(td.nodes)
        assert parents[1:] == [ref_parent[i] for i in order[1:]]


def test_node_sweep_matches_the_reference_sweep_on_the_corpus():
    rng = random.Random(16)
    forms = set()
    for _, _, td in acceptance_corpus():
        out = make_nonredundant(td)
        forms.add(out is td)
        _check_node_sweep(out, rng)
    assert forms == {False, True}


def test_normalized_corpus_has_no_nested_pairs_and_same_heaviest_path():
    kinds = [_check_normalized(td) for _, _, td in acceptance_corpus()]
    assert any(kinds) and not all(kinds)


@settings(max_examples=80, deadline=None)
@given(redundant_tds())
def test_normalized_random_has_no_nested_pairs_and_same_heaviest_path(inst):
    g, td = inst
    assert validate(g, td).ok
    _check_normalized(td)


@st.composite
def path_tds(draw):
    """A decomposition whose tree is a path and which keeps cluster
    connectivity: each cluster keeps a subset of its predecessor's vertices
    and adds fresh ones. Node ids are distinct ints drawn at random, so the
    smallest node may sit inside the path; graph_n may exceed the covered
    vertices; nested neighbours, which make normalization contract, occur
    when a cluster keeps all or adds none."""
    length = draw(st.integers(1, 10))
    clusters, cur, nxt = [], [], 1
    for pos in range(length):
        keep = draw(st.lists(st.sampled_from(cur), unique=True)) if cur else []
        fresh = draw(st.integers(0 if pos else 1, 3))
        cur = keep + list(range(nxt, nxt + fresh))
        nxt += fresh
        clusters.append(cur)
    ids = draw(st.lists(st.integers(1, 40), min_size=length,
                        max_size=length, unique=True))
    return TreeDecomposition(ids, list(zip(ids, ids[1:])),
                             dict(zip(ids, clusters)),
                             nxt - 1 + draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.builds(lambda inst: inst[1], redundant_tds()),
                 path_tds()), st.randoms(use_true_random=False))
def test_node_sweep_matches_the_reference_sweep_random(td, rng):
    _check_node_sweep(td, rng)
    _check_node_sweep(make_nonredundant(td), rng)


def _sweeps(td):
    """(cluster-reading sweeps, node sweeps) that heaviest path runs on the
    normalization record."""
    rec = normalize(td)
    with mock.patch.object(treedec, "_recording_sweep",
                           wraps=treedec._recording_sweep) as recording, \
            mock.patch.object(treedec, "_node_dfs",
                              wraps=treedec._node_dfs) as node_sweep:
        treedec._record_path(rec, OpsCounter())
    return recording.call_count, node_sweep.call_count


@settings(max_examples=200, deadline=None)
@given(path_tds())
def test_covering_walk_gives_the_swept_path(td):
    """The walk that replaces the second sweep when normalization's sweep
    covered every vertex returns the same nodes and weight as both sweeps
    of the public heaviest_path on the normalized decomposition."""
    assert _handed_path(normalize(td), td.graph_n) == heaviest_path(
        make_nonredundant(td))


@pytest.mark.parametrize("name, reached", [
    ("walk", lambda td: _sweeps(td) == (0, 0)),
    ("sweep, smallest node inside the path",
     lambda td: _sweeps(td) == (0, 1) and min(td.nodes) not in
     (td.nodes[0], td.nodes[-1])),
    ("sweep, graph_n above the covered vertices",
     lambda td: _sweeps(td) == (0, 1) and normalize(td).form is td._form
     and td.graph_n > vertex_count(td)),
    ("both sweeps, contracting input",
     lambda td: _sweeps(td) == (0, 1)
     and normalize(td).form is not td._form),
])
def test_path_tds_reach_walk_and_sweep(name, reached):
    """Path decompositions reach every way heaviest_path can run on a
    record: the walk, and the node sweep alone on the records
    normalization's pass left as the first sweep, whether the smallest
    node sits inside the path, is an end of a pass-through path that does
    not cover, or the input contracted, where the pass's records and a
    node sweep over the output make up the first sweep. None of them runs
    the recording sweep."""
    find(path_tds(), reached,
         settings=settings(max_examples=1000, database=None,
                           phases=[Phase.generate]))


@st.composite
def covering_inputs(draw):
    """Path decompositions that cover every vertex: path_tds() made
    nonredundant, with graph_n cut to the covered vertices and new node
    ids in -5..59, the smallest at one end of the path; some of them with
    one vertex added again to a cluster further down the path than the run
    of clusters it left, which breaks cluster connectivity; and grids
    k = 1..15. Normalization passes most of them through and finds them
    covering."""
    kind = draw(st.sampled_from(["path", "broken", "grid"]))
    if kind == "grid":
        return grid_td(draw(st.integers(1, 15)))
    td = make_nonredundant(draw(path_tds()))
    path = _path_from(td, next(i for i in td.nodes
                               if len(td.neighbors[i]) <= 1))
    clusters = [list(td.clusters[i]) for i in path]
    ids = draw(st.lists(st.integers(-5, 59), min_size=len(path),
                        max_size=len(path), unique=True))
    low, end = ids.index(min(ids)), draw(st.sampled_from([0, len(ids) - 1]))
    ids[low], ids[end] = ids[end], ids[low]
    again = [(x, q) for p in range(len(clusters) - 2) for x in clusters[p]
             if x not in clusters[p + 1]
             for q in range(p + 2, len(clusters))]
    if kind == "broken" and again:
        x, q = draw(st.sampled_from(again))
        clusters[q].append(x)
    return TreeDecomposition(ids, list(zip(ids, ids[1:])),
                             dict(zip(ids, clusters)),
                             max(x for c in clusters for x in c))


def _path_from(td, end):
    """The nodes of a path-shaped tree, from its node `end`."""
    path, prev = [end], None
    while len(path) < len(td.nodes):
        prev, nxt = path[-1], next(j for j in td.neighbors[path[-1]]
                                   if j != prev)
        path.append(nxt)
    return path


def _connected(td):
    return validate(Graph(td.graph_n, []), td).connectivity_ok


@settings(max_examples=300, deadline=None)
@given(covering_inputs())
def test_covering_labeling_matches_two_pass_reference_from_the_smallest_node(
        td):
    """On a covering pass-through input the labeling built from the
    normalization sweep's vertex order equals the two-pass reference on the
    path oriented from the smallest node, connectivity or not."""
    rec = normalize(td)
    if rec.vertex_of is None:
        return
    pl = build_plabeling(rec)
    at = {i: p for p, i in enumerate(td.nodes, 1)}
    ref = two_pass_plabeling(td, [at[i] for i in _path_from(td, min(td.nodes))])
    assert pl.clusters is ref.clusters is td._form.clusters
    assert pl.ids is ref.ids is td._form.ids
    assert pl.n == ref.n == td.graph_n
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


@pytest.mark.parametrize("connected", [True, False])
def test_covering_inputs_reach_covering_records(connected):
    find(covering_inputs(),
         lambda td: (normalize(td).vertex_of is not None
                     and _connected(td) == connected),
         settings=settings(max_examples=1000, database=None,
                           phases=[Phase.generate]))


def test_covering_path_decomposition_cut_reads_no_cluster_in_heaviest_path(
        monkeypatch):
    """On a grid's path decomposition the cut reads no cluster after
    normalization. It is compared against a record that hands heaviest_path
    a first sweep's records from the smallest node as if normalization had
    left them, with the smallest node as the second sweep's start, which
    labels the same path in the same orientation. Neither cut runs a
    sweep that reads clusters. The ops differ in the two ways that read
    the cluster entries and nodes: the walk against the node sweep (one
    op per node each, with no re-rooting from the smallest node), and the
    covering labeling's n label stores against the labeling's cluster
    pass, which reads every cluster entry and every node."""
    g, td = make_instance("grid", k=20)
    records = (treedec._recording_sweep(td._form)[0],
               [td._form.root])
    normalize = engine.make_nonredundant

    def with_records(td0, ops):
        rec = normalize(td0, ops=ops)
        return replace(rec, vertex_of=None, ends=None,
                       first_sweep=records)

    with mock.patch.object(treedec, "_recording_sweep",
                           wraps=treedec._recording_sweep) as recording, \
            mock.patch.object(treedec, "_node_dfs",
                              wraps=treedec._node_dfs) as node_sweep:
        b, walked = exact_size_cut_linear(g, td, g.n // 2)
        assert (recording.call_count, node_sweep.call_count) == (0, 0)
        monkeypatch.setattr(engine, "make_nonredundant", with_records)
        b_swept, swept = exact_size_cut_linear(g, td, g.n // 2)
        assert (recording.call_count, node_sweep.call_count) == (0, 1)
    entries = sum(len(c) for c in td.clusters.values())
    assert walked.ops == swept.ops - entries + g.n
    assert b == b_swept


@st.composite
def normalization_inputs(draw):
    """redundant_tds() and path_tds() decompositions with their edges
    listed in a random order and turned at random, some with one vertex
    dropped from a cluster or added to one, which can break coverage and
    cluster connectivity."""
    td = draw(st.one_of(redundant_tds().map(lambda inst: inst[1]),
                        path_tds()))
    edges = [(b, a) if draw(st.booleans()) else (a, b)
             for a, b in draw(st.permutations(list(td.edges())))]
    clusters = {i: list(c) for i, c in td.clusters.items()}
    c = clusters[draw(st.sampled_from(td.nodes))]
    edit = draw(st.sampled_from(["none", "drop", "add"]))
    if edit == "drop" and c:
        c.remove(draw(st.sampled_from(c)))
    elif edit == "add" and len(c) < td.graph_n:
        c.append(draw(st.sampled_from(
            [x for x in range(1, td.graph_n + 1) if x not in c])))
    return TreeDecomposition(td.nodes, edges, clusters, td.graph_n)


def _class_events(td):
    """What normalization's pass does to its classes on td, replayed with
    the class heads in a list: takeovers of a class's head ("adopt"),
    classes taken over twice, takeovers of the root's class, and folds into
    a class whose head was taken over."""
    clusters, seen, events = td.clusters, set(), Counter()
    heads, adopted = [], []
    stack = [(min(td.nodes), None, None)]
    while stack:
        i, p, pc = stack.pop()
        fresh = len(set(clusters[i]) - seen)
        seen.update(clusters[i])
        c = pc
        if pc is None or fresh and (len(clusters[i]) - fresh
                                    != len(clusters[heads[pc]])):
            c = len(heads)
            heads.append(i)
            adopted.append(0)
        elif fresh:
            heads[pc] = i
            adopted[pc] += 1
            events["adopt"] += 1
            events["adopted twice"] += adopted[pc] == 2
            events["root class adopted"] += pc == 0
        else:
            events["fold into adopted"] += adopted[pc] > 0
        stack.extend((j, i, c) for j in td.neighbors[i] if j != p)
    return events


@settings(max_examples=300, deadline=None)
@given(normalization_inputs())
def test_make_nonredundant_matches_the_union_find_reference(td):
    """The whole result equals the union-find normalization's: the same
    object when nothing contracts, otherwise the same nodes, neighbor lists
    in the same order and the same cluster list objects, both in the
    public make_nonredundant's dicts and in the record's lists by id; the
    same endpoint flags, and the largest cluster size. A pass-through
    has the reference's endpoint and ops count. After a contraction the
    endpoint is that of the reference sweep over the output from node 1,
    when connectivity holds, and the ops count one more per output node,
    for the node sweep that finds it."""
    ops_ref, ops_new = OpsCounter(), OpsCounter()
    try:
        ref, end, covers = uf_make_nonredundant(td, ops=ops_ref)
    except EmptyDecomposition:
        with pytest.raises(EmptyDecomposition):
            normalize(td)
        with pytest.raises(EmptyDecomposition):
            make_nonredundant(td)
        return
    rec = normalize(td, ops=ops_new)
    out = rec.form
    passed = out is td._form
    assert (passed, rec.vertex_of is not None) == (ref is td, covers)
    assert max(map(len, out.clusters)) == ref.width() + 1
    assert list(rec.nodes) == ref.nodes
    heavy_end = out.ids[rec.path[-1] if rec.vertex_of is not None
                        else rec.first_sweep[1][0]]
    if passed:
        assert rec.nodes is td.nodes
        assert heavy_end == end
        assert ops_new.total == ops_ref.total
    else:
        if _connected(td):
            assert heavy_end == ref_weight_sweep(ref, 1)[0]
        k = len(ref.nodes)
        assert ops_new.total == ops_ref.total + k
        assert rec.nodes == range(1, k + 1) and out.ids == range(k + 1)
        assert out.root == 1 and out.top == td._form.top
        assert len(out.neighbors) == len(out.clusters) == k + 1
        assert out.neighbors[0] == [] and out.clusters[0] == ()
        assert [out.neighbors[i] for i in ref.nodes] == [
            ref.neighbors[i] for i in ref.nodes]
        assert all(out.clusters[i] is ref.clusters[i] for i in ref.nodes)
    public = make_nonredundant(td)
    assert (public is td) == (ref is td)
    assert public.nodes == ref.nodes
    assert list(public.neighbors.items()) == list(ref.neighbors.items())
    assert list(public.clusters) == list(ref.clusters)
    assert all(public.clusters[i] is ref.clusters[i] for i in ref.clusters)
    assert public.graph_n == ref.graph_n


@pytest.mark.parametrize("event", ["adopt", "adopted twice",
                                   "root class adopted", "fold into adopted"])
def test_normalization_inputs_reach_every_class_event(event):
    find(normalization_inputs(), lambda td: _class_events(td)[event] > 0,
         settings=settings(max_examples=2000, database=None,
                           phases=[Phase.generate]))


def test_make_nonredundant_duplicate_pair():
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [1, 2]}, 2)
    out = make_nonredundant(td)
    assert len(out.nodes) == 1
    assert sorted(out.clusters[out.nodes[0]]) == [1, 2]


def test_make_nonredundant_keeps_p6():
    out = make_nonredundant(p6_td())
    assert len(out.nodes) == 5
    assert sorted(map(sorted, out.clusters.values())) == \
        [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]


def test_make_nonredundant_chain():
    td = TreeDecomposition([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)],
                           {1: [1], 2: [1, 2], 3: [2], 4: [2, 3]}, 3)
    out = make_nonredundant(td)
    assert sorted(map(sorted, out.clusters.values())) == [[1, 2], [2, 3]]


def test_make_nonredundant_all_empty():
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [], 2: []}, 3)
    with pytest.raises(EmptyDecomposition):
        make_nonredundant(td)


def test_restrict_prefix():
    td = p6_td()
    out = restrict(td, vertex_filter={1, 2, 3})
    assert [sorted(out.clusters[i]) for i in out.nodes] == \
        [[1, 2], [2, 3], [3], [], []]
    sub = set_validate(path_graph(6), out, vertices={1, 2, 3})
    assert sub.ok


def test_restrict_single_node():
    out = restrict(p6_td(), keep_nodes=[3])
    assert out.nodes == [3]
    assert sorted(out.clusters[3]) == [3, 4]


def test_heaviest_path_of_path_shape():
    path, rep = heaviest_path(p6_td())
    assert sorted(path) == [1, 2, 3, 4, 5]
    assert rep.path_weight == 6
    assert rep.relative_weight == 1


def test_heaviest_path_single_node():
    td = TreeDecomposition([1], [], {1: [1, 2]}, 2)
    path, rep = heaviest_path(td)
    assert path == [1]
    assert rep.path_weight == 2


def test_path_weight_single_block():
    assert path_weight(p6_td(), [1]) == 2
    assert Fraction(path_weight(p6_td(), [1]), 6) == Fraction(1, 3)


def test_heaviest_path_y_shape():
    td = y_shaped_td()
    path, rep = heaviest_path(td)
    best, _ = brute_force_heaviest_path(td)
    assert rep.path_weight == best == 8
    # runs through the 5- and 4-weight branches
    assert {path[0], path[-1]} == {5, 8}


def test_nonredundant_path_checks():
    td = TreeDecomposition([1, 2, 3], [(1, 2), (2, 3)],
                           {1: [1, 2], 2: [2], 3: [2, 3]}, 3)
    assert not is_nonredundant_path(td, [1, 2, 3])
    assert not is_nonredundant_path(td, [3, 2, 1])
    with pytest.raises(RedundantPath):
        orient_path(td, [1, 2, 3])
    out = make_nonredundant(td)
    path, _ = heaviest_path(out)
    assert is_nonredundant_path(out, orient_path(out, path))


def test_empty_first_cluster_not_a_start():
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [], 2: [1]}, 1)
    assert not is_nonredundant_path(td, [1, 2])


def test_width1_td_of_p6():
    td = tree_to_width1_td(path_graph(6))
    assert len(td.nodes) == 5
    _, rep = heaviest_path(td)
    assert rep.relative_weight == 1


def test_width1_td_of_star():
    g = star_graph(4)
    td = tree_to_width1_td(g)
    assert len(td.nodes) == 4
    assert validate(g, td).ok
    _, rep = heaviest_path(td)
    diameter = Fraction(len(longest_path_in_tree(g)), g.n)
    assert rep.relative_weight >= Fraction(3, 5) == diameter


def test_width1_td_of_ternary():
    g = ternary_tree(2)
    td = tree_to_width1_td(g)
    assert g.n == 13
    assert td.size() == 36
    assert validate(g, td).ok
    _, rep = heaviest_path(td)
    best, _ = brute_force_heaviest_path(td)  # 12 nodes, within oracle cap
    assert rep.path_weight == best == 6
    diameter = Fraction(len(longest_path_in_tree(g)), g.n)
    assert rep.relative_weight >= Fraction(5, 13) == diameter


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 1000))
def test_width1_td_random_trees(n, seed):
    g = random_tree(n, seed)
    td = tree_to_width1_td(g)
    assert validate(g, td).ok
    assert td.width() == 1
    _, rep = heaviest_path(td)
    assert rep.relative_weight >= Fraction(len(longest_path_in_tree(g)), g.n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 1000))
def test_make_nonredundant_random(n, width, seed):
    g, td = random_graph_with_td(n, width, seed)
    out = make_nonredundant(td)
    assert validate(g, out).ok
    assert out.width() <= td.width()
    assert len(out.nodes) <= vertex_count(out)
    for a, b in out.edges():
        ca, cb = set(out.clusters[a]), set(out.clusters[b])
        assert not ca <= cb and not cb <= ca
    # contraction may only help the heaviest path
    _, before = heaviest_path(td)
    _, after = heaviest_path(out)
    assert after.path_weight >= before.path_weight


def test_grid_td_valid():
    g, td = make_instance("grid", k=4)
    rep = validate(g, td)
    assert rep.ok
    assert rep.width == 4
    _, wr = heaviest_path(td)
    assert wr.relative_weight == 1
