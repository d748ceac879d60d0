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
    DecompositionFormatError,
    InternalInvariant,
    InvalidDecomposition,
)
from .graph import check_graph, cut_width
from .treedec import check_decomposition
from .util import UNCOUNTED, check_int, holds, no_gc, vertex_array


@dataclass
class SubtreeWeights:
    """Per-node lists indexed by tree position, 0 being the root."""
    total: list          # vertices covered by the subtree at the position
    reduced: list        # total minus the overlap with the parent cluster
    children: list       # child positions, highest position first


def compute_subtree_weights(parent, clusters, n, ops=UNCOUNTED):
    """Vertex counts per subtree, and each position's children.

    The tree is two lists aligned by position: `parent[k]` is the position
    of k's parent, which comes before k, and `clusters[k]` lists distinct
    vertices in 1..n, a vertex range that holds every entry, which sizes
    the one mark array (an n beyond memory raises
    DecompositionFormatError); position 0 is the root, whose parent entry
    is not read. `total[k]` counts distinct vertices in clusters at or below
    position k; `reduced[k]` subtracts those shared with the parent
    cluster, so sibling reduced weights add up disjointly. `children[k]`
    lists k's children unsorted, highest position first: the greedy ranks
    them only at the nodes it visits. The package built the tree, and its
    shape is trusted."""
    size = len(parent)
    total = list(map(len, clusters))  # plus the children's reduced weights
    seen = vertex_array(bytearray, n, DecompositionFormatError)
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
    # the scan: an op per entry and per position; the accumulation: two
    ops.add(sum(total) + 3 * size - 1)
    children = [[] for _ in range(size)]
    for k in range(size - 1, 0, -1):
        r = reduced[k] = total[k] - reduced[k]
        p = parent[k]
        total[p] += r
        children[p].append(k)
    reduced[0] = total[0] - reduced[0]
    return SubtreeWeights(total, reduced, children)


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
    of 1..graph_n must be covered by td. The per-vertex arrays span the
    graph's order, or without a graph td's largest cluster entry, never
    graph_n alone. A `g` that is neither None nor a Graph raises
    GraphFormatError, and a `td` of another type, or without a graph one
    whose largest entry is beyond memory, DecompositionFormatError.
    """
    if g is not None:
        check_graph(g)
    check_decomposition(td)
    n = td.graph_n
    if g is not None and g.n != n:
        raise InvalidDecomposition(
            "the graph has %d vertices but the decomposition's graph_n is %d"
            % (g.n, n))
    check_int(BadSize, "m", m, 1, n)
    if not holds(lambda: 0 < c < 1):
        raise BadFraction("balance parameter %r is not in (0, 1)" % (c,))
    # depth first from the smallest node, children in `td.neighbors` order,
    # over td's positional form
    form = td._form
    nbrs, cls = form.neighbors, form.clusters
    parent, clusters, stack = [], [], [(form.root, None, 0)]
    while stack:
        i, p, at = stack.pop()
        stack.extend((j, i, len(parent)) for j in reversed(nbrs[i]) if j != p)
        parent.append(at)
        clusters.append(cls[i])
    return _cut_tree(parent, clusters, form.top if g is None else n, m, c, g)


def _cut_tree(parent, clusters, n, m, c, g=None, ops=UNCOUNTED):
    """approximate_cut on a tree the package built, in the form
    compute_subtree_weights reads, its entries in 1..n, which sizes the
    side array, with m and c already checked; the doubling step calls it
    on a hanging tree.

    The greedy ranks the children of the nodes it visits, and only those,
    by reduced weight, then position, both descending; each round takes
    its node's children in that rank while they fit. Each child ranked or
    scanned counts one op."""
    sw = compute_subtree_weights(parent, clusters, n, ops=ops)
    y, yt, kids = sw.total, sw.reduced, sw.children
    if y[0] < m:
        raise BadSize("decomposition covers %d < m vertices" % y[0])

    def rank(j):
        return yt[j], j

    # deepest node whose subtree still covers m vertices
    i = 0
    while True:
        ops.add(len(kids[i]))
        heavy = [j for j in kids[i] if y[j] >= m]
        if not heavy:
            break
        i = max(heavy, key=rank)
    in_b = vertex_array(bytearray, n, DecompositionFormatError)
    bsize = 0
    rounds = 0
    while bsize <= c * m:
        rounds += 1
        rem = m - bsize
        siblings = sorted(kids[i], key=rank, reverse=True)
        ops.add(len(siblings))
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
            j = max(kids[i], key=rank, default=None)
            ops.add(len(kids[i]))
    b = list(compress(range(n + 1), in_b))
    ops.add(n)
    if not b or bsize > m:
        raise InternalInvariant("part size %d escaped (0, m]" % bsize)
    width = None if g is None else cut_width(g, in_b)
    return ApproxCutResult(b, rounds, width)
