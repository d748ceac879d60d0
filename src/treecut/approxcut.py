"""Cuts of prescribed approximate size driven by subtree weights.

Given a decomposition of G and a target m, picks a vertex set B with
c*m < |B| <= m whose boundary only uses edges touching few clusters: at
most ceil(log2(1/(1-c))) clusters are opened, one per refinement round.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .errors import (
    BadFraction,
    BadSize,
    InternalInvariant,
    InvalidDecomposition,
)
from .graph import check_graph, cut_width
from .treedec import check_decomposition
from .util import UNCOUNTED, no_gc


@dataclass
class RootedTree:
    """A decomposition tree listed top-down, built by the package, not checked.

    `pairs` are (child, parent) pairs in which every parent is listed
    before its children; `root` is the one node that is nobody's child.
    `clusters` maps every node to a list of distinct vertices in
    1..graph_n.
    """
    root: int
    pairs: list
    clusters: dict
    graph_n: int

    @classmethod
    def of(cls, td):
        """Depth-first walk of `td` from its smallest node, children in
        `td.neighbors` order."""
        root = min(td.nodes)
        pairs = []
        stack = [(j, root) for j in reversed(td.neighbors[root])]
        while stack:
            i, p = stack.pop()
            pairs.append((i, p))
            stack.extend((j, i) for j in reversed(td.neighbors[i]) if j != p)
        return cls(root, pairs, td.clusters, td.graph_n)


@dataclass
class SubtreeWeights:
    """Per-node lists indexed by walk position, 0 being the root."""
    nodes: list          # node id at each position
    clusters: list       # its cluster
    total: list          # vertices covered by the subtree at the position
    reduced: list        # total minus the overlap with the parent cluster
    children: list       # child positions, heaviest reduced weight first


def compute_subtree_weights(tree, ops=UNCOUNTED):
    """Vertex counts per subtree, rooted at the smallest node id, with
    children pre-sorted for the greedy.

    `total[k]` counts distinct vertices in clusters at or below position
    k; `reduced[k]` subtracts those shared with the parent cluster, so
    sibling reduced weights add up disjointly. Position 0 is the root and
    the others follow the pairs. Sorting uses one counting sort over all
    nodes; equal reduced weights keep reverse pair order. `tree` is a
    RootedTree the package built, and its shape is trusted. The scaffolding
    by node id and by vertex is gone before the children lists exist."""
    root, pairs, clusters = tree.root, tree.pairs, tree.clusters
    low = min((i for i, _ in pairs), default=root)
    if low < root:
        pairs = _rerooted(pairs, root, low)
        root = low
    nodes = [root, *(i for i, _ in pairs)]
    at = dict(zip(nodes, range(len(nodes))))
    parent = [0, *map(at.__getitem__, (p for _, p in pairs))]
    del at, pairs
    cls = list(map(clusters.__getitem__, nodes))
    total = list(map(len, cls))  # then plus the children's reduced weights
    seen = [False] * (tree.graph_n + 1)
    reduced = []  # the overlap with the parent cluster, then reduced weights
    for cl in cls:
        c = 0
        for x in cl:
            if seen[x]:
                c += 1  # recurring vertex: already in the parent cluster
            else:
                seen[x] = True
        reduced.append(c)
    del seen
    work = sum(total) + len(nodes)
    for k in range(len(nodes) - 1, 0, -1):
        r = reduced[k] = total[k] - reduced[k]
        total[parent[k]] += r
    reduced[0] = total[0] - reduced[0]
    work += 2 * len(nodes) - 1
    ops.add(work)
    top = total[0]
    # counting sort chained through two int lists: first[val] is the
    # highest position of reduced weight val and after[k] the next lower
    # one; 0, the root's position, ends a chain
    first = [0] * (top + 1)
    after = [0] * len(nodes)
    for k in range(1, len(nodes)):
        r = reduced[k]
        after[k] = first[r]
        first[r] = k
    children = [[] for _ in nodes]
    for k in reversed(first):
        while k:
            children[parent[k]].append(k)
            k = after[k]
    ops.add(top + len(nodes))
    return SubtreeWeights(nodes, cls, total, reduced, children)


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


@dataclass
class ApproxCutResult:
    b_vertices: list
    rounds: int     # clusters opened; boundary width is at most rounds*t*delta
    width: int | None


@no_gc
def approximate_cut(td, m, c, g=None):
    """Vertex set B with c*m < |B| <= m opening few clusters.

    `td` is a TreeDecomposition, rooted at its smallest node id. `m` is an
    int (not a bool) in 1..graph_n, else BadSize; `c` may be a float or
    Fraction in the open interval (0, 1), else BadFraction. The host graph
    is optional and only used to report the realized boundary width; one
    whose order is not graph_n raises InvalidDecomposition. Every vertex
    of 1..graph_n must be covered by td. A `g` that is neither None nor a
    Graph raises GraphFormatError, and a `td` of another type, a
    RootedTree included, DecompositionFormatError.
    """
    if g is not None:
        check_graph(g)
    check_decomposition(td)
    n = td.graph_n
    if g is not None and g.n != n:
        raise InvalidDecomposition(
            "the graph has %d vertices but the decomposition's graph_n is %d"
            % (g.n, n))
    if type(m) is not int or not 1 <= m <= n:
        raise BadSize("m=%r is not an int in 1..%d" % (m, n))
    try:
        c_ok = 0 < c < 1
    except TypeError:  # a string, None, a complex number...
        c_ok = False
    if not c_ok:
        raise BadFraction("balance parameter %r is not in (0, 1)" % (c,))
    return _cut_tree(RootedTree.of(td), m, c, g)


def _cut_tree(tree, m, c, g=None, ops=UNCOUNTED):
    """approximate_cut on a RootedTree the package built, with m and c
    already checked; the doubling step calls it on a hanging tree."""
    sw = compute_subtree_weights(tree, ops=ops)
    n = tree.graph_n
    y, yt, kids, clusters = sw.total, sw.reduced, sw.children, sw.clusters
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
