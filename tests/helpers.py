"""Shared fixtures, test-only inspection helpers, the rebuild-per-round
reference driver, the checked step-by-step runner used by several tests,
and exact references that only tests use."""
import itertools
import math
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import strategies as st

import treecut
from treecut import engine, treedec
from treecut.approxcut import ApproxCutResult, SubtreeWeights
from treecut.approxcut import _cut_tree as approximate_cut
from treecut.engine import doubling_step
from treecut.errors import (
    BadSize,
    EmptyDecomposition,
    InternalInvariant,
    InvalidDecomposition,
    NotATree,
    TreecutError,
)
from treecut.generators import make_instance, random_graph_with_td
from treecut.graph import cut_width, max_degree
from treecut.labeling import PLabeling
from treecut.treedec import (
    TreeDecomposition,
    ValidityReport,
    make_nonredundant,
)
from treecut.util import UNCOUNTED, OpsCounter


def p6_td():
    """Path decomposition {1,2},{2,3},{3,4},{4,5},{5,6} of the 6-path."""
    clusters = {i: [i, i + 1] for i in range(1, 6)}
    return TreeDecomposition([1, 2, 3, 4, 5], [(i, i + 1) for i in range(1, 5)],
                             clusters, 6)


def y_shaped_td():
    """Three branches of cluster-union weights 5, 4 and 2 sharing vertex 1."""
    clusters = {
        1: [1],
        2: [1, 2], 3: [2, 3], 4: [3, 4], 5: [4, 5],
        6: [1, 6], 7: [6, 7], 8: [7, 8],
        9: [1, 9],
    }
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (6, 7), (7, 8), (1, 9)]
    return TreeDecomposition(list(range(1, 10)), edges, clusters, 9)


def spider_fixture():
    """Spider with three legs of length 8 (n=25) and its width-1 decomposition."""
    return make_instance("spider", legs=[8, 8, 8])


def holds(pl, x):
    """Is vertex x still part of the current instance of labeling `pl`?"""
    return x in current_vertices(pl)


def current_vertices(pl):
    """Vertices of the current instance of `pl`, in label order."""
    return pl.vertex_of[1:pl.n + 1]


def vertex_count(td):
    """Number of distinct vertices appearing in the clusters of `td`."""
    seen = set()
    for i in td.nodes:
        seen.update(td.clusters[i])
    return len(seen)


def tricut_width(g, vertices, b, z):
    """Crossing edges of the induced subgraph under the 3-way split B/Z/rest."""
    vs = set(vertices)
    bs = set(b)
    zs = set(z)
    total = 0
    for u, v in g.edges():
        if u in vs and v in vs:
            cu = 0 if u in bs else (1 if u in zs else 2)
            cv = 0 if v in bs else (1 if v in zs else 2)
            if cu != cv:
                total += 1
    return total


def cluster_boundary_edges(g, td, i):
    """Edges of g with at least one endpoint in the cluster of node i."""
    cluster = set(td.clusters[i])
    return [(u, v) for u, v in g.edges() if u in cluster or v in cluster]


def decompose_by_node(g, td, pl, i):
    """Vertex parts left when the boundary edges of path node i are removed:
    the label prefix before i's block, the hanging vertices of i, the label
    suffix after the block, and each cluster vertex of i on its own."""
    blocks = pl.blocks()
    if i not in blocks:
        raise InternalInvariant("node %r is not a path node" % i)
    a, r, b = blocks[i]
    prefix = {pl.vertex_of[l] for l in range(1, a)}
    hanging = {pl.vertex_of[l] for l in range(a, r)}
    suffix = {pl.vertex_of[l] for l in range(b + 1, pl.n + 1)}
    parts = [prefix, hanging, suffix]
    parts.extend({pl.vertex_of[l]} for l in range(r, b + 1))
    return [p for p in parts if p]


def is_nonredundant_path(td, path_nodes):
    """True if the first node qualifies as a start: nonempty first cluster and
    no cluster contained in its predecessor along the sequence."""
    first = set(td.clusters[path_nodes[0]])
    if not first:
        return False
    prev = first
    for i in path_nodes[1:]:
        cur = set(td.clusters[i])
        if cur <= prev:
            return False
        prev = cur
    return True


class RedundantPath(TreecutError):
    """Neither end of the given path qualifies as a nonredundant start."""


def orient_path(td, path_nodes):
    """Return the sequence oriented so its first node is a valid start."""
    if is_nonredundant_path(td, path_nodes):
        return list(path_nodes)
    rev = list(reversed(path_nodes))
    if is_nonredundant_path(td, rev):
        return rev
    raise RedundantPath("neither end of the path is a nonredundant start")


def restricted_td(pl):
    """Current instance of labeling `pl` as an explicit decomposition."""
    nodes = []
    edges = []
    for k, i in enumerate(pl.path_nodes):
        if k:
            edges.append((pl.path_nodes[k - 1], i))
        nodes.append(i)
        for child, par in span_pairs(pl, i):
            nodes.append(child)
            edges.append((par, child))
    current = set(current_vertices(pl))
    clusters = {i: [x for x in pl.clusters[i] if x in current]
                for i in nodes}
    return TreeDecomposition(nodes, edges, clusters, cluster_top(pl.clusters))


def cluster_top(clusters):
    """The largest vertex of any cluster of `clusters`, a list by position
    or a dict by node (0 when every cluster is empty)."""
    if isinstance(clusters, dict):
        clusters = clusters.values()
    return max((max(c) for c in clusters if c), default=0)


def hanging_pairs(pl):
    """Each path node of `pl` with its hanging (child, parent) pairs, in
    path order, rebuilt from the spans (see span_pairs)."""
    return [(i, span_pairs(pl, i)) for i in pl.path_nodes]


def span_pairs(pl, i):
    """The (child, parent) pairs of the trees hanging from path node i,
    rebuilt from its spans of `pl.order`: the spans in stored order, the
    trees of each from last to first, each tree top-down, a tree running
    from a position whose parent is i to the next such position or the
    span's end. [] when `pl.hang` has no key for i."""
    spans = pl.hang.get(i, ())
    pairs = []
    for s, e in zip(spans[0::2], spans[1::2]):
        roots = [q for q in range(s, e) if pl.parents[q] == i]
        for a, b in reversed(list(zip(roots, roots[1:] + [e]))):
            pairs += zip(pl.order[a:b], pl.parents[a:b])
    return pairs


# The listing the approximate cut read before the labeling wrote its tree by
# position: the split node's (child, parent) pairs with its clusters
# renumbered to local labels, as engine.doubling_step built them from
# PLabeling.hanging_pairs (now span_pairs), then re-rooted at the smallest
# node and numbered through a node-to-position dict, as
# approxcut.compute_subtree_weights did with a RootedTree; kept verbatim as
# the reference of PLabeling.hanging_tree in test_labeling.py and of the
# public listing in test_approxcut.py.
def ref_hanging_tree(pl, i, a, b):
    """(nodes, parent, clusters) of the trees hanging from path node i of
    `pl`, whose labels are a..b-1, listed as rerooted_listing lists them."""
    pairs = span_pairs(pl, i)
    # hanging vertices renumbered from 1 in label order
    loc = dict(zip(pl.vertex_of[a:b], range(1, b - a + 1)))
    local = {i: []}
    for child, _ in pairs:
        local[child] = list(filter(None, map(loc.get, pl.clusters[child])))
    return rerooted_listing(i, pairs, local, pl.ids)


def rerooted_listing(root, pairs, clusters, ids=None):
    """(nodes, parent, clusters) by position of the tree `root` plus the
    (child, parent) pairs, every parent listed before its children, rooted
    at its node of smallest id, `ids[i]` for node i, or i itself when
    `ids` is None: position 0 is the root and the others follow the pairs;
    `parent` holds positions, 0 for the root."""
    key = (lambda i: i) if ids is None else ids.__getitem__
    low = min((i for i, _ in pairs), default=root, key=key)
    if key(low) < key(root):
        pairs = _rerooted(pairs, root, low)
        root = low
    nodes = [root, *(i for i, _ in pairs)]
    at = dict(zip(nodes, range(len(nodes))))
    parent = [0, *map(at.__getitem__, (p for _, p in pairs))]
    return nodes, parent, list(map(clusters.__getitem__, nodes))


def _rerooted(pairs, root, low):
    """`pairs` rooted at `low` instead of `root`: the pairs on the way from
    `low` up to `root` turn over and come first, the others keep their
    order."""
    up = dict(pairs)
    path = [low]
    while path[-1] != root:
        path.append(up[path[-1]])
    moved = set(path)
    return [*zip(path[1:], path), *((i, p) for i, p in pairs if i not in moved)]


def span_form(path, pairs_of):
    """(order, parents, hang): the hanging trees of `pairs_of`, which maps
    a path node to its (child, parent) pairs in DFS order from it, as the
    spans a PLabeling holds, over an order made up for them. Each path
    node is followed by its trees, last to first, each top-down, as one
    span, so span_pairs gives the pairs back; a node with no pairs gets no
    key."""
    order, parents, hang = [], [], {}
    for i in path:
        order.append(i)
        parents.append(None)
        trees = []
        for child, par in pairs_of[i]:
            if par == i:
                trees.append([])
            trees[-1].append((child, par))
        start = len(order)
        for tree in reversed(trees):
            for child, par in tree:
                order.append(child)
                parents.append(par)
        if trees:
            hang[i] = (start, len(order))
    return order, parents, hang


def debug_dump(pl):
    """One line per path node of `pl` with the label spans of its block."""
    lines = []
    for i, (a, r, b) in pl.blocks().items():
        hang_part = "-" if r == a else "%d..%d" % (a, r - 1)
        lines.append("node %d: hanging %s cluster %d..%d" % (i, hang_part, r, b))
    return "\n".join(lines)


@dataclass
class VertexLabeling:
    """A labeling's state by vertex, the form PLabeling kept before its
    arrays were indexed by label: `label_of`, `is_path_vertex` and
    `path_node_of` are indexed by vertex, `vertex_of` by label, each up to
    the largest cluster vertex. Entries of vertices that left the instance
    go stale, as they did then. The reference step and scans below read
    and shrink this form."""
    clusters: object
    ids: object
    n: int
    label_of: list
    vertex_of: list
    is_path_vertex: bytearray
    path_node_of: list
    path_nodes: list
    hang: dict
    order: list | None
    parents: list | None


def per_vertex(pl):
    """The VertexLabeling view of PLabeling `pl`: its label-indexed
    `vertex_of` and `flags`, and the blocks its `ends` bound, turned into
    arrays by vertex, with 0 for every vertex outside the current
    instance. The lists are new, the hanging trees `pl`'s own."""
    n0 = cluster_top(pl.clusters)
    label_of = [0] * (n0 + 1)
    is_pv = bytearray(n0 + 1)
    path_node_of = [0] * (n0 + 1)
    for lab, x in enumerate(pl.vertex_of):
        label_of[x] = lab
        is_pv[x] = pl.flags[lab]
    a = 1
    for i, b in zip(pl.path_nodes, pl.ends, strict=True):
        for x in pl.vertex_of[a:b + 1]:
            path_node_of[x] = i
        a = b + 1
    return VertexLabeling(pl.clusters, pl.ids, pl.n, label_of,
                          list(pl.vertex_of),
                          is_pv, path_node_of, list(pl.path_nodes), pl.hang,
                          pl.order, pl.parents)


def by_label(ref):
    """The PLabeling of VertexLabeling `ref`: flags gathered over its
    current labels, and the last label of each run of labels whose
    vertices share a path node, asserted to be one run per path node, in
    path order."""
    vertex_of = list(ref.vertex_of)
    owner = list(map(ref.path_node_of.__getitem__, vertex_of)) + [None]
    ends = array("l", [lab for lab in range(1, ref.n + 1)
                       if owner[lab + 1] != owner[lab]])
    assert [owner[lab] for lab in ends] == ref.path_nodes
    return PLabeling(ref.clusters, ref.ids, ref.n, vertex_of,
                     bytes(map(ref.is_path_vertex.__getitem__, vertex_of)),
                     ref.path_nodes, ends, ref.hang, ref.order, ref.parents)


def two_pass_plabeling(td, path_nodes=None, ops=UNCOUNTED):
    """Reference labeling in two passes: the first marks the vertices of
    every path cluster, the second assigns the labels, with the hanging
    trees walked as (child, parent) pairs. The package marks each path
    cluster just before labeling that node's block and walks spans of a
    preorder; the differential tests compare the two. The package labels
    only a normalization record, so this also labels a bare decomposition,
    or an explicit path of one, for the tests and the reference drivers.
    `td` is a TreeDecomposition or a normalization record's positional
    form; like the package, this reads the form, and its nodes, the
    path's included, are the form's positions. It builds the arrays by
    vertex and returns them as a PLabeling (see by_label), its hanging
    trees in the span form over an order made up for them (span_form),
    checked to give back the DFS pairs."""
    form = td._form if isinstance(td, TreeDecomposition) else td
    if path_nodes is None:
        # the public heaviest_path's two sweeps, counted into `ops`
        path_nodes = treedec._sweep_from(
            form, *treedec._recording_sweep(form, ops), ops)[0]
    clusters, neighbors = form.clusters, form.neighbors
    path_set = set(path_nodes)
    is_pv = bytearray(form.top + 1)
    # hanging trees: components of the tree minus path edges, keyed by the
    # path node they attach to; stored as (child, parent) pairs in DFS order
    hang = {}
    work = 0
    for i in path_nodes:
        for x in clusters[i]:
            is_pv[x] = 1
        pairs = []
        stack = [(w, i) for w in reversed(neighbors[i]) if w not in path_set]
        pop, push = stack.pop, stack.append
        while stack:
            v, p = pop()
            pairs.append((v, p))
            for w in neighbors[v]:
                if w != p:
                    push((w, v))
        hang[i] = pairs
        work += len(clusters[i]) + len(pairs) + 1
    path = list(path_nodes)
    labels = _two_pass_assign(clusters, form.top, path, is_pv, hang)
    if labels is None:
        path.reverse()
        labels = _two_pass_assign(clusters, form.top, path, is_pv, hang)
        if labels is None:
            raise RedundantPath("neither end of the path is a nonredundant start")
    ops.add(work)
    label_of, vertex_of, path_node_of = labels
    order, parents, spans = span_form(path, hang)
    ref = VertexLabeling(clusters, form.ids, len(vertex_of) - 1, label_of,
                         vertex_of, is_pv, path_node_of, path, spans, order,
                         parents)
    assert all(span_pairs(ref, i) == hang[i] for i in path)
    return by_label(ref)


def _two_pass_assign(clusters, n0, path, is_pv, hang):
    """(label_of, vertex_of, path_node_of) for `path` in this orientation,
    or None when some path node adds no new cluster vertex."""
    label_of = [0] * (n0 + 1)
    path_node_of = [0] * (n0 + 1)
    vertex_of = [0]
    append = vertex_of.append
    k = 0
    for i in path:
        # hanging vertices first, in the package's reverse preorder: the
        # trees in pairs order, each bottom-up; then fresh cluster vertices,
        # so cluster vertices close the block
        pairs = hang[i]
        roots = [q for q, (_, p) in enumerate(pairs) if p == i]
        for q, r in zip(roots, roots[1:] + [len(pairs)]):
            for v, _ in reversed(pairs[q:r]):
                for x in clusters[v]:
                    if not is_pv[x] and not label_of[x]:
                        k += 1
                        append(x)
                        label_of[x] = k
                        path_node_of[x] = i
        hanging_end = k
        for x in clusters[i]:
            if not label_of[x]:
                k += 1
                append(x)
                label_of[x] = k
                path_node_of[x] = i
        if k == hanging_end:
            return None
    return label_of, vertex_of, path_node_of


def restrict(td, keep_nodes=None, vertex_filter=None):
    """Sub-decomposition on `keep_nodes` with clusters filtered to the
    container `vertex_filter`. The result must again be a tree."""
    if keep_nodes is None:
        keep_nodes = list(td.nodes)
    kept = set(keep_nodes)
    allowed = None if vertex_filter is None else set(vertex_filter)
    edges = [(a, b) for a, b in td.edges() if a in kept and b in kept]
    clusters = {i: [x for x in td.clusters[i] if allowed is None or x in allowed]
                for i in keep_nodes}
    return TreeDecomposition(keep_nodes, edges, clusters, td.graph_n)


def counted_nonredundant(td, ops):
    """The public make_nonredundant(td), with the work of its
    normalization counted into `ops`."""
    treedec.normalize(td, ops)
    return make_nonredundant(td)


def exact_size_cut(g, td0, m):
    """Reference driver: rebuilds path and labeling from scratch each round.

    Slower than `exact_size_cut_linear` by a factor of the round count but
    structurally simpler: each round restricts the decomposition to the
    remainder, normalizes it again and builds a fresh labeling, so it serves
    as the differential reference for the in-place driver. Returns the
    sorted cut side and a CutReport.
    """
    if not 0 <= m <= g.n:
        raise BadSize("m=%r outside 0..%d" % (m, g.n))
    if td0._form.top > g.n:
        raise InvalidDecomposition("vertex %d lies outside the graph's 1..%d"
                                   % (td0._form.top, g.n))
    ops = OpsCounter()
    t_start = time.perf_counter()
    td = counted_nonredundant(td0, ops)
    pl = two_pass_plabeling(td, ops=ops)
    engine._check_coverage(pl, g.n)
    r0 = pl.relative_weight()
    cur_td = td
    b_total = []
    steps = []
    while len(b_total) < m:
        if steps:  # the last step left Z as its labeling's vertices
            cur_td = counted_nonredundant(
                restrict(cur_td, None, set(pl.vertex_of[1:])), ops)
            pl = two_pass_plabeling(cur_td, ops=ops)
        steps.append(doubling_step(pl, m - len(b_total), b_total, ops=ops))
        if steps[-1].kind == "direct":
            break
    report = engine._finish(g, td.width() + 1, m, b_total, steps, r0, ops,
                            t_start)
    return report.b_vertices, report


def run_checked(g, td0, m):
    """Drive the cut step by step, asserting every stated step property.

    Returns (b_vertices, step_kinds, r0). Checks per step: the direct case
    yields no remainder and an induced cut of width at most 2*t*delta; the
    other cases double the relative path weight, keep the remainder at most
    half the instance, stay within the per-step width cap, and leave a
    decomposition that still validates against the induced subgraph.
    """
    td = make_nonredundant(td0)
    t = td.width() + 1
    delta = max_degree(g)
    pl = two_pass_plabeling(td)
    r0 = pl.relative_weight()
    cur = list(current_vertices(pl))
    assert len(cur) == g.n
    b_total = []
    kinds = []
    while m - len(b_total) > 0:
        res = step_result(pl, m - len(b_total))
        kinds.append(res.kind)
        rem = m - len(b_total)
        if res.kind == "direct":
            assert not res.z_vertices
            assert len(res.b_vertices) == rem
            assert tricut_width(g, cur, res.b_vertices, []) <= 2 * t * delta
            b_total.extend(res.b_vertices)
            break
        assert res.z_vertices
        assert len(res.b_vertices) <= rem <= len(res.b_vertices) + len(res.z_vertices)
        assert 2 * len(res.z_vertices) <= len(cur)
        assert res.w_after >= 2 * res.w_before
        cap = math.log2(16.0 / float(res.w_before)) * t * delta
        w3 = tricut_width(g, cur, res.b_vertices, res.z_vertices)
        assert w3 <= cap + 1e-9, (w3, cap)
        shrunk = restricted_td(pl)
        report = set_validate(g, shrunk, vertices=set(current_vertices(pl)))
        assert report.ok, report.witness
        b_total.extend(res.b_vertices)
        cur = res.z_vertices
    assert len(b_total) == m
    assert len(kinds) <= 1 or Fraction(2) ** (len(kinds) - 1) <= 1 / r0
    return b_total, kinds, r0


@dataclass
class StepResult:
    """One doubling step as the reference step returns it: the vertices
    it added to B and, unless the step was direct, the remainder Z."""
    kind: str                 # "direct", "back" or "forward"
    b_vertices: list
    z_vertices: list
    w_before: Fraction
    w_after: Fraction | None


def step_result(pl, m, ops=UNCOUNTED):
    """Run engine.doubling_step on `pl` and return it as a StepResult: B
    read off the cut list handed to the step, Z off the shrunk labeling
    (none after a direct step). Asserts that the step's record counts
    both."""
    b = []
    rec = doubling_step(pl, m, b, ops=ops)
    z = [] if rec.kind == "direct" else pl.vertex_of[1:]
    assert (rec.b_added, rec.z_size) == (len(b), len(z))
    return StepResult(rec.kind, b, z, rec.w_before, rec.w_after)


def acceptance_corpus():
    """Instance sweep used by the bound-compliance and step-property checks.

    Yields (label, graph, decomposition) for 500+ instances across every
    family, with n ranging up to 10**4.
    """
    for n in (10, 23, 47, 64, 101, 230, 512, 1000, 2500, 5000, 10000):
        yield "path-%d" % n, *make_instance("path", n=n)
        yield "star-%d" % n, *make_instance("star", n=n)
        leg = max(1, (n - 1) // 3)
        yield "spider-%d" % n, *make_instance("spider", legs=[leg, leg, leg])
        yield ("caterpillar-%d" % n,
               *make_instance("caterpillar", spine=max(1, n // 3), hairs=2))
    for h in range(1, 9):
        yield "ternary-%d" % h, *make_instance("ternary", h=h)
    for k in range(2, 11):
        yield "grid-%d" % k, *make_instance("grid", k=k)
    for seed in range(280):
        n = 5 + (seed * 17) % 196
        yield "rtree-%d" % seed, *make_instance("random-tree", n=n, seed=seed)
    for seed in range(170):
        n = 5 + (seed * 13) % 96
        width = 1 + seed % 4
        yield "rtd-%d" % seed, *random_graph_with_td(n, width, seed)


@st.composite
def connectivity_breaking_instances(draw):
    """A random graph with a decomposition (random-td, or the width-1
    decomposition of a random tree), node ids shuffled, with one to three
    cluster edits that add a vertex to a cluster or drop one from it. An
    added vertex often lies in clusters far away, which breaks cluster
    connectivity; a dropped one can leave a vertex or an edge uncovered.
    Returns (graph, decomposition, m)."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        g, td = random_graph_with_td(n, draw(st.integers(1, 4)), seed)
    else:
        g, td = make_instance("random-tree", n=n, seed=seed)
    clusters = {i: list(c) for i, c in td.clusters.items()}
    for _ in range(draw(st.integers(1, 3))):
        c = clusters[draw(st.sampled_from(td.nodes))]
        x = draw(st.integers(1, g.n))
        if x in c:
            c.remove(x)
        else:
            c.append(x)
    new_id = dict(zip(td.nodes, draw(st.permutations(td.nodes))))
    td = TreeDecomposition([new_id[i] for i in td.nodes],
                           [(new_id[a], new_id[b]) for a, b in td.edges()],
                           {new_id[i]: c for i, c in clusters.items()}, g.n)
    return g, td, draw(st.integers(0, g.n))


def small_fixtures():
    """Fixtures with n <= 64 for the exhaustive size sweep."""
    out = [
        ("p6", *make_instance("path", n=6)),
        ("p17", *make_instance("path", n=17)),
        ("star4", *make_instance("star", n=5)),
        ("star9", *make_instance("star", n=10)),
        ("spider432", *make_instance("spider", legs=[4, 3, 2])),
        ("spider888", *spider_fixture()),
        ("caterpillar", *make_instance("caterpillar", spine=5, hairs=2)),
        ("ternary2", *make_instance("ternary", h=2)),
        ("grid3", *make_instance("grid", k=3)),
        ("grid4", *make_instance("grid", k=4)),
        ("k2", *make_instance("path", n=2)),
        ("k1", *make_instance("path", n=1)),
    ]
    for seed in range(5):
        out.append(("rtree-s%d" % seed,
                    *make_instance("random-tree", n=8 + 3 * seed, seed=seed)))
        out.append(("rtd-s%d" % seed,
                    *random_graph_with_td(8 + 3 * seed, 3, seed)))
    return out


# The set-based validity check that treedec.validate replaced, kept verbatim
# as the reference of the differential test in test_validate.py; its
# `vertices=` mode checks the shrunk instances against the induced subgraph.
def set_validate(g, td, vertices=None):
    """Check the three decomposition properties against g.

    With `vertices` given, checks are relative to that induced subgraph:
    every listed vertex must be covered and every induced edge must fit in
    some cluster. Cluster connectivity is always checked as-is.
    """
    if vertices is None:
        vertex_set = set(g.vertices)
    else:
        vertex_set = set(vertices)
    where = {}  # vertex -> list of nodes whose cluster holds it
    witness = ""
    v_ok = e_ok = c_ok = True
    cluster_sets = {}
    for i in td.nodes:
        s = set(td.clusters[i])
        cluster_sets[i] = s
        for x in s:
            if x not in vertex_set:
                v_ok = False
                witness = witness or "cluster %r holds foreign vertex %r" % (i, x)
            where.setdefault(x, []).append(i)
    for x in vertex_set:
        if x not in where:
            v_ok = False
            witness = witness or "vertex %r in no cluster" % (x,)
    for u, v in g.edges():
        if u not in vertex_set or v not in vertex_set:
            continue
        homes = where.get(u, [])
        if not any(v in cluster_sets[i] for i in homes):
            e_ok = False
            witness = witness or "edge (%r, %r) fits in no cluster" % (u, v)
            break
    # connectivity: vertex occurrences must form one subtree each
    root = td.nodes[0]
    parent = {root: None}
    stack = [root]
    while stack:
        i = stack.pop()
        for j in td.neighbors[i]:
            if j not in parent:
                parent[j] = i
                stack.append(j)
    heads = {}
    for i in td.nodes:
        p = parent[i]
        for x in cluster_sets[i]:
            if p is None or x not in cluster_sets[p]:
                heads[x] = heads.get(x, 0) + 1
    for x, k in heads.items():
        if k != 1:
            c_ok = False
            witness = witness or "vertex %r appears in %d separate subtrees" % (x, k)
            break
    width = max(len(td.clusters[i]) for i in td.nodes) - 1
    return ValidityReport(v_ok, e_ok, c_ok, witness, width)


# The DFS subtree weights that approxcut.compute_subtree_weights replaced,
# kept verbatim (with its own result type) as the reference of the
# differential test in test_approxcut.py.
@dataclass
class DfsSubtreeWeights:
    root: int
    order: list          # preorder over nodes
    parent: dict
    total: dict          # vertices covered by the subtree at i
    reduced: dict        # total minus the overlap with the parent cluster
    children: dict       # children sorted by reduced weight, heaviest first


def dfs_subtree_weights(td, ops=None):
    """Vertex counts per subtree, rooted at the smallest node id, with
    children pre-sorted for the greedy.

    `total[i]` counts distinct vertices in clusters at or below i;
    `reduced[i]` subtracts those shared with the parent cluster, so sibling
    reduced weights add up disjointly. Sorting uses one counting sort over
    all nodes (stable, deterministic)."""
    root = min(td.nodes)
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        i = stack.pop()
        order.append(i)
        for j in td.neighbors[i]:
            if j != parent[i]:
                parent[j] = i
                stack.append(j)
    seen = [False] * (td.graph_n + 1)
    total = {}  # cluster sizes, then plus the children's reduced weights
    overlap = {}
    work = 0
    for i in order:
        c = 0
        for x in td.clusters[i]:
            if seen[x]:
                c += 1  # recurring vertex: already in the parent cluster
            else:
                seen[x] = True
        total[i] = len(td.clusters[i])
        overlap[i] = c
        work += total[i] + 1
    reduced = {}
    for i in reversed(order):
        reduced[i] = total[i] - overlap[i]
        if parent[i] is not None:
            total[parent[i]] += reduced[i]
    work += 2 * len(order) - 1
    if ops is not None:
        ops.add(work)
    top = total[root]
    buckets = [[] for _ in range(top + 1)]
    for i in order:
        if parent[i] is not None:
            buckets[reduced[i]].append(i)
    children = {i: [] for i in order}
    for val in range(top, -1, -1):
        for j in buckets[val]:
            children[parent[j]].append(j)
    if ops is not None:
        ops.add(top + len(order))
    return DfsSubtreeWeights(root, order, parent, total, reduced, children)


# The approximate cut whose subtree weights sorted every node's children
# with one counting sort, before approxcut._cut_tree ranked only the
# children of the nodes it visits, kept verbatim (renamed) as the reference
# of the differential test in test_approxcut.py.
def sorting_subtree_weights(parent, clusters, n, ops=UNCOUNTED):
    """Vertex counts per subtree, with children pre-sorted for the greedy.

    The tree is two lists aligned by position: `parent[k]` is the position
    of k's parent, which comes before k, and `clusters[k]` lists distinct
    vertices in 1..n, a vertex range that holds every entry, which sizes
    the one mark array; position 0 is the root, whose parent entry is
    not read. `total[k]` counts distinct vertices in clusters at or below
    position k; `reduced[k]` subtracts those shared with the parent
    cluster, so sibling reduced weights add up disjointly. Sorting uses one
    counting sort over all nodes; equal reduced weights keep reverse
    position order. The package built the tree, and its shape is trusted."""
    size = len(parent)
    total = list(map(len, clusters))  # plus the children's reduced weights
    seen = bytearray(n + 1)
    reduced = []  # the overlap with the parent cluster, then reduced weights
    for cl in clusters:
        c = 0
        for x in cl:
            if seen[x]:
                c += 1  # recurring vertex: already in the parent cluster
            else:
                seen[x] = 1
        reduced.append(c)
    del seen
    work = sum(total) + size
    for k in range(size - 1, 0, -1):
        r = reduced[k] = total[k] - reduced[k]
        total[parent[k]] += r
    reduced[0] = total[0] - reduced[0]
    work += 2 * size - 1
    ops.add(work)
    top = total[0]
    # counting sort chained through two int lists: first[val] is the
    # highest position of reduced weight val and after[k] the next lower
    # one; 0, the root's position, ends a chain
    first = [0] * (top + 1)
    after = [0] * size
    for k in range(1, size):
        r = reduced[k]
        after[k] = first[r]
        first[r] = k
    children = [[] for _ in range(size)]
    for k in reversed(first):
        while k:
            children[parent[k]].append(k)
            k = after[k]
    ops.add(top + size)
    return SubtreeWeights(total, reduced, children)


def sorting_cut_tree(parent, clusters, n, m, c, g=None, ops=UNCOUNTED):
    """approximate_cut on a tree the package built, in the form
    compute_subtree_weights reads, its entries in 1..n, which sizes the
    side array, with m and c already checked; the doubling step calls it
    on a hanging tree."""
    sw = sorting_subtree_weights(parent, clusters, n, ops=ops)
    y, yt, kids = sw.total, sw.reduced, sw.children
    if y[0] < m:
        raise BadSize("decomposition covers %d < m vertices" % y[0])
    # deepest node whose subtree still covers m vertices, by position
    i = 0
    while True:
        nxt = next((j for j in kids[i] if y[j] >= m), None)
        if nxt is None:
            break
        i = nxt
    in_b = bytearray(n + 1)
    bsize = 0
    rounds = 0
    while bsize <= c * m:
        rounds += 1
        rem = m - bsize
        siblings = kids[i]
        acc = 0
        take = 0
        for j in siblings:
            if acc + yt[j] <= rem:
                acc += yt[j]
                take += 1
            else:
                break
        added = 0
        for j in siblings[:take]:
            stack = [j]
            while stack:
                h = stack.pop()
                for x in clusters[h]:
                    if not in_b[x]:
                        in_b[x] = 1
                        added += 1
                stack.extend(kids[h])
                ops.add(len(clusters[h]) + 1)
        # subtree sweeps also collected the current cluster; strip it
        for x in clusters[i]:
            if in_b[x]:
                in_b[x] = 0
                added -= 1
        ops.add(len(clusters[i]))
        if added != acc:
            raise InternalInvariant("reduced weights out of sync with sweep")
        bsize += added
        if take == len(siblings):
            # everything below fits; settle the difference inside the cluster
            need = m - bsize
            for x in clusters[i]:
                if need == 0:
                    break
                if not in_b[x]:
                    in_b[x] = 1
                    bsize += 1
                    need -= 1
            if need:
                raise InternalInvariant("cluster too small for the remainder")
            break
        j = siblings[take]
        rem = m - bsize
        while j is not None and y[j] >= rem:
            i = j
            j = kids[i][0] if kids[i] else None
            ops.add(1)
    b = list(compress(range(n + 1), in_b))
    ops.add(n)
    if not b or bsize > m:
        raise InternalInvariant("part size %d escaped (0, m]" % bsize)
    width = None if g is None else cut_width(g, in_b)
    return ApproxCutResult(b, rounds, width)


# The union-find normalization that treedec.normalize replaced, kept as the
# reference of the differential test in test_treedec.py. It returned the
# sweep's findings in two slots of the input; it now returns them beside
# the result.
def uf_make_nonredundant(td, ops=None):
    """Contract away nested adjacent clusters.

    One depth-first pass from the smallest node id. When a cluster is
    contained in its (current) parent cluster the node is merged upward;
    when the parent cluster is contained in the node's cluster the parent
    class adopts the node's cluster. Width never grows and any tree path of
    the input maps onto a tree path of the output covering at least the
    same vertices.

    Returns (result, heavy_end, covers). When nothing contracts, the
    result is `td` itself, not a copy. The pass is then exactly
    heaviest_path's first sweep, so `heavy_end` is its endpoint, and
    `covers` records whether its weight reached graph_n. Then every node
    but the root added a vertex unseen before, so all nodes lie on the path
    from the root to `heavy_end`: the tree is that path, whether or not
    cluster connectivity holds. Otherwise the result is a new decomposition
    with dense node ids 1..k in discovery order, `heavy_end` is None and
    `covers` False.
    """
    clusters, neighbors = td.clusters, td.neighbors
    if all(not clusters[i] for i in td.nodes):
        raise EmptyDecomposition("every cluster is empty")
    root = min(td.nodes)
    rep = {}  # contracted node -> node of its class, until the class root

    def find(i):
        while i in rep:
            j = rep[i]
            if j in rep:
                j = rep[j]
                rep[i] = j  # path halving
            i = j
        return i

    seen = [False] * (td.graph_n + 1)
    class_order = []
    work = 0
    best, best_w = root, -1  # first node of greatest path weight from root
    stack = [(root, None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, tree_parent, w = pop()
        x = clusters[i]
        fresh = 0
        for v in x:
            if not seen[v]:
                seen[v] = True
                fresh += 1
        work += len(x) + 1
        w += fresh
        if w > best_w:
            best, best_w = i, w
        if tree_parent is None:
            class_order.append(i)
        else:
            p = find(tree_parent) if rep else tree_parent
            if not fresh:
                rep[i] = p  # cluster nested in parent: fold node upward
            elif len(x) - fresh == len(clusters[p]):
                rep[p] = i  # parent cluster nested here: parent class adopts it
            else:
                class_order.append(i)
        for j in neighbors[i]:
            if j != tree_parent:
                push((j, i, w))
    if ops is not None:
        ops.add(work)
    if not rep:
        return td, best, best_w == td.graph_n
    # class_order lists creation-time roots; adoption may have moved a class
    # to a new root, so compress to final representatives keeping first seen
    final = []
    seen_cls = set()
    for i in class_order:
        f = find(i)
        if f not in seen_cls:
            seen_cls.add(f)
            final.append(f)
    new_id = {f: k + 1 for k, f in enumerate(final)}
    edges = []
    for a, b in td.edges():
        fa, fb = find(a), find(b)
        if fa != fb:
            edges.append((new_id[fa], new_id[fb]))
    return TreeDecomposition._trusted(
        list(range(1, len(final) + 1)), edges,
        {new_id[f]: clusters[f] for f in final}, td.graph_n), None, False


# The weight sweep that heaviest_path ran twice, reading every cluster both
# times, before its second sweep came to run over the nodes alone; kept
# verbatim as the reference of the differential tests in test_treedec.py.
def ref_weight_sweep(td, start, ops=None):
    """DFS from `start`; returns (end, weight, parents).

    The weight of node i is |union of clusters on the tree path start..i|;
    `end` is the first node of greatest weight in discovery order. Relies on
    cluster connectivity: any previously seen vertex recurring in a cluster
    must already sit in the parent cluster.
    """
    clusters, neighbors = td.clusters, td.neighbors
    seen = [False] * (td.graph_n + 1)
    parent = {}
    best, best_w = start, -1
    work = 0
    stack = [(start, None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, p, w = pop()
        cl = clusters[i]
        for x in cl:
            if not seen[x]:
                seen[x] = True
                w += 1
        work += len(cl) + 1
        if w > best_w:
            best, best_w = i, w
        for j in neighbors[i]:
            if j != p:
                parent[j] = i
                push((j, i, w))
    if ops is not None:
        ops.add(work)
    return best, best_w, parent


def ref_path(start, end, parent):
    """The tree path from `start` to `end`, from ref_weight_sweep's parents
    of a sweep rooted at `start`."""
    path = [end]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


# Exact references and bounds that only tests use.

_PATH_LIMIT = 12


def path_weight(td, path_nodes):
    """Number of distinct vertices in the clusters along a node sequence."""
    seen = set()
    for i in path_nodes:
        seen.update(td.clusters[i])
    return len(seen)


def brute_force_heaviest_path(td):
    """Heaviest tree path weight by trying every node pair (|nodes| <= 12)."""
    nodes = td.nodes
    if len(nodes) > _PATH_LIMIT:
        raise TreecutError("exhaustive path search capped at %d nodes"
                           % _PATH_LIMIT)
    best = 0
    best_path = None
    for a in nodes:
        # BFS parents from a
        parent = {a: None}
        queue = [a]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in td.neighbors[v]:
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
        for b in nodes:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            w = path_weight(td, path)
            if w > best:
                best = w
                best_path = list(reversed(path))
    return best, best_path


def ternary_bisection_lower_bound(h):
    """Lower bound h - log3(h) for the bisection width of the complete
    rooted ternary tree of height h."""
    if h < 1:
        raise BadSize("height must be positive")
    return h - math.log(h, 3)


# The doubling step and the label scans of PLabeling that read the labels
# one at a time in Python, before they became bytes operations and before
# the labeling's state was indexed by label; kept verbatim, with the
# methods taking the labeling as `self`, as the reference of the
# differential test in test_engine.py, except that the step reads the
# hanging trees through span_pairs, lists them for the approximate cut
# through rerooted_listing and drops the anchor's key. They read
# and shrink a VertexLabeling (see per_vertex).
def ref_blocks(self):
    """Per path node: (first label, first cluster-vertex label, last label).

    Hanging vertices occupy the first span of a block, the node's fresh
    cluster vertices the rest. Blocks appear in path order.
    """
    out = {}
    prev = None
    for lab in range(1, self.n + 1):
        x = self.vertex_of[lab]
        i = self.path_node_of[x]
        if i != prev:
            out[i] = [lab, 0, lab]
            prev = i
        out[i][2] = lab
        if self.is_path_vertex[x] and out[i][1] == 0:
            out[i][1] = lab
    for i, (a, r, b) in out.items():
        if r == 0:
            raise InternalInvariant("path node %r holds no cluster vertex" % i)
    if list(out) != [i for i in self.path_nodes if i in out]:
        raise InternalInvariant("blocks out of path order")
    return {i: tuple(v) for i, v in out.items()}


def ref_core_count(self):
    """Number of current vertices lying in path clusters."""
    return sum(1 for lab in range(1, self.n + 1)
               if self.is_path_vertex[self.vertex_of[lab]])


def ref_doubling_step(pl, m, ops=UNCOUNTED):
    """One step of the cut construction on the current labeling state.

    The step is direct when some path-cluster label has its m-shift in a
    path cluster: the m labels after it are the whole cut. Otherwise it
    splits at the first path node, in path order, whose hanging span holds
    enough labels with a path-cluster vertex m labels back or, failing that,
    m labels forward; back is tried before forward at each node.

    Returns the vertices added to B and, unless the step was direct, the
    remainder set Z. The labeling then shrinks in place to the instance
    induced by Z (labels reassigned in ascending old-label order, path list
    pruned, the anchor's hanging tree dropped); `pl.clusters` is left
    untouched.
    """
    n = pl.n
    if type(m) is not int or not 1 <= m <= n:
        raise BadSize("m=%r is not an int in 1..%d" % (m, n))
    av, al = pl.vertex_of, pl.label_of
    ar, ap = pl.is_path_vertex, pl.path_node_of
    rtot = ref_core_count(pl)
    w_before = Fraction(rtot, n)
    ops.add(n)
    # direct case: some path-cluster vertex has its m-shift in a path cluster
    for lab in range(1, n + 1):
        if ar[av[lab]] and ar[av[(lab - 1 + m) % n + 1]]:
            b = [av[(lab - 1 + k) % n + 1] for k in range(1, m + 1)]
            ops.add(n + m)
            return StepResult("direct", b, [], w_before, None)
    # otherwise the path clusters cover at most half the vertices
    if 2 * rtot > n:
        raise InternalInvariant("direct case missed a crowded instance")
    ops.add(4 * n)  # the failed direct scan, then the case scan
    blocks = ref_blocks(pl)
    # node i's non-path labels are exactly a_i..rst_i-1, because a block
    # lists its hanging vertices first; the hits shifted by d bound Z
    cases = (("back", -m), ("forward", m))
    for i, (kind, d) in itertools.product(pl.path_nodes, cases):
        a_i, rst_i, _ = blocks[i]
        s_size = rst_i - a_i
        hits = 0
        for lab in range(a_i, rst_i):
            if ar[av[(lab - 1 + d) % n + 1]]:
                if not hits:
                    first = lab
                last = lab
                hits += 1
        if hits:
            za, zb = (first - 1 + d) % n + 1, (last - 1 + d) % n + 1
            z_len = (zb - za) % n + 1
            if (s_size + z_len - hits) * rtot <= (n - rtot) * hits:
                break
    else:
        raise InternalInvariant("no node admits an economical remainder")
    anchor = ap[av[za]]
    far = ap[av[zb]]
    if kind == "back":
        # the partial cut runs from just after the far block to the block
        # preceding the split node; empty when that block is the far one
        jprev = pl.path_nodes[pl.path_nodes.index(i) - 1]
        v = blocks[far][2]
        w = blocks[jprev][2]
        b1 = [av[(v - 1 + k) % n + 1] for k in range(1, (w - v) % n + 1)]
    else:
        # mirrored: from the split node's first cluster vertex up to just
        # before the anchor's first cluster vertex; empty when i is the anchor
        w = rst_i
        v = blocks[anchor][1]
        b1 = [av[(w - 1 + k) % n + 1] for k in range((v - w) % n)]
    ops.add(len(b1) + len(pl.path_nodes))
    mt = m - len(b1)
    if not 1 <= mt <= s_size:
        raise InternalInvariant("remainder %d outside the hanging span" % mt)
    c = Fraction(n - 2 * rtot, n - rtot)
    if c == 0:
        b2 = []
    else:
        local = {i: []}  # hanging vertices renumbered from 1 in label order
        pairs = span_pairs(pl, i)
        for child, _ in pairs:
            cl = []
            for x in pl.clusters[child]:
                lab = al[x]
                if a_i <= lab < rst_i and av[lab] == x:
                    cl.append(lab - a_i + 1)
            local[child] = cl
            ops.add(len(pl.clusters[child]) + 1)
        _, parent, clusters = rerooted_listing(i, pairs, local, pl.ids)
        res = approximate_cut(parent, clusters, s_size, mt, c, ops=ops)
        b2 = [av[k + a_i - 1] for k in res.b_vertices]
    b = b1 + b2
    if za <= zb:
        zlabels = range(za, zb + 1)
    else:
        zlabels = list(range(1, zb + 1)) + list(range(za, n + 1))
    zverts = [av[l] for l in zlabels]
    if not len(b) <= m <= len(b) + z_len:
        raise InternalInvariant("remainder cannot absorb the deficit")
    if 2 * z_len > n:
        raise InternalInvariant("remainder larger than half the instance")
    w_after = Fraction(hits, z_len)
    if w_after < 2 * w_before:
        raise InternalInvariant("path weight share failed to double")
    marked = set(ap[x] for x in zverts)
    for p in pl.path_nodes:
        if p not in marked:
            pl.hang.pop(p, None)
    pl.hang.pop(anchor, None)
    pl.path_nodes = [p for p in pl.path_nodes if p in marked]
    for k, x in enumerate(zverts):
        al[x] = k + 1
    pl.vertex_of = [0] + zverts
    pl.n = z_len
    ops.add(z_len + len(marked))
    return StepResult(kind, b, zverts, w_before, w_after)


# The double loop over every vertex's neighbors that graph.cut_width ran
# before it summed over one side, kept as the reference of the
# differential test in test_graph.py; it takes the side bytes as they are.
def double_loop_cut_width(g, side):
    """Number of edges of g whose endpoints hold different side bytes."""
    crossing = 0
    for u, nbrs in enumerate(g.adj):
        c = side[u]
        for v in nbrs:
            if side[v] != c:
                crossing += 1
    return crossing // 2  # each crossing edge is seen from both ends


# The second BFS that Graph.is_connected ran, the diameter sweep that
# returned its distance too, and the longest path and width-1 decomposition
# of a tree that checked tree-ness through that BFS before sweeping and
# rebuilt the tree's parents in a DFS of their own; kept verbatim, with the
# check of Graph.is_tree spelled out over ref_component, as the references
# of the differential test in test_graph.py.
def ref_component(g, s):
    out = [s]
    seen = [False] * (g.n + 1)
    seen[s] = True
    head = 0
    while head < len(out):
        v = out[head]
        head += 1
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = True
                out.append(w)
    return out


def ref_is_tree(g):
    return (g.n >= 1 and g.m_edges == g.n - 1
            and len(ref_component(g, 1)) == g.n)


def ref_farthest(g, s):
    """BFS from s; return (vertex, dist, parents), smallest-id tie-break."""
    dist = [-1] * (g.n + 1)
    parent = [0] * (g.n + 1)
    dist[s] = 0
    frontier = [s]
    order = []
    while frontier:
        order.extend(frontier)
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    best = s
    for v in order:
        if dist[v] > dist[best] or (dist[v] == dist[best] and v < best):
            best = v
    return best, dist[best], parent


def ref_longest_path_in_tree(g):
    """Vertex sequence of a longest path, found by two BFS sweeps.

    Ties are broken toward smaller vertex ids at both sweeps.
    """
    if not ref_is_tree(g):
        raise NotATree("longest_path_in_tree needs a connected acyclic graph")
    a, _, _ = ref_farthest(g, 1)
    b, _, parent = ref_farthest(g, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def ref_tree_to_width1_td(g):
    """Width-1 decomposition of a tree: one node per edge, clusters are the
    edge endpoints, and a longest path of the tree maps onto a tree path of
    the decomposition (so its relative weight is at least the relative
    diameter)."""
    if not ref_is_tree(g):
        raise NotATree("input must be a connected acyclic graph")
    if g.n == 1:
        return TreeDecomposition._trusted([1], [], {1: [1]}, 1)
    spine = ref_longest_path_in_tree(g)
    root = spine[0]
    # DFS from the longest-path end; each non-root vertex owns its parent edge
    parent = [0] * (g.n + 1)
    order = []
    visited = [False] * (g.n + 1)
    visited[root] = True
    # visit the spine successor first so spine edges get consecutive ids
    stack = [w for w in reversed(g.adj[root]) if w != spine[1]] + [spine[1]]
    for w in g.adj[root]:
        parent[w] = root
    while stack:
        v = stack.pop()
        if visited[v]:
            continue
        visited[v] = True
        order.append(v)
        for w in g.adj[v]:
            if not visited[w]:
                parent[w] = v
                stack.append(w)
    node_of = {v: k + 1 for k, v in enumerate(order)}
    clusters = {node_of[v]: [parent[v], v] for v in order}
    anchor = node_of[spine[1]]  # stand-in for the root, which owns no edge
    edges = []
    for v in order:
        p = parent[v]
        if p == root:
            if node_of[v] != anchor:
                edges.append((node_of[v], anchor))
        else:
            edges.append((node_of[v], node_of[p]))
    return TreeDecomposition._trusted(list(range(1, len(order) + 1)), edges,
                                      clusters, g.n)


# the prologue of a child process: its address space capped at 1 GiB
_CAP_AS = """
import resource
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
"""


def run_capped(code):
    """Run the Python source `code` in a child process whose address space
    is capped at 1 GiB, with this checkout's package importable, and return
    what it printed; the child can import this module too. A nonzero exit
    fails the calling test; a platform without the limit skips it."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address space limit on this platform")
    dirs = [str(Path(treecut.__file__).resolve().parents[1]),
            str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, dirs))
    run = subprocess.run([sys.executable, "-c", _CAP_AS + code],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return run.stdout
