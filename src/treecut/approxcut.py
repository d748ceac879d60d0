"""Cuts of prescribed approximate size driven by subtree weights.

Given a decomposition of G and a target m, picks a vertex set B with
c*m < |B| <= m whose boundary only uses edges touching few clusters: at
most ceil(log2(1/(1-c))) clusters are opened, one per refinement round.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BadFraction, BadSize, InternalInvariant
from .graph import cut_width


@dataclass
class SubtreeWeights:
    root: int
    order: list          # preorder over nodes
    parent: dict
    total: dict          # vertices covered by the subtree at i
    reduced: dict        # total minus the overlap with the parent cluster
    children: dict       # children sorted by reduced weight, heaviest first


def compute_subtree_weights(td, ops=None):
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
    return SubtreeWeights(root, order, parent, total, reduced, children)


@dataclass
class ApproxCutResult:
    b_vertices: list
    rounds: int     # clusters opened; boundary width is at most rounds*t*delta
    width: int | None


def approximate_cut(td, m, c, g=None, ops=None):
    """Vertex set B with c*m < |B| <= m opening few clusters.

    `c` may be a float or Fraction in the open interval (0, 1). The host
    graph is optional and only used to report the realized boundary width.
    Every vertex of 1..graph_n must be covered by td.
    """
    n = td.graph_n
    if not 1 <= m <= n:
        raise BadSize("m=%r outside 1..%d" % (m, n))
    if not 0 < c < 1:
        raise BadFraction("balance parameter %r outside (0, 1)" % (c,))
    sw = compute_subtree_weights(td, ops=ops)
    y, yt, kids = sw.total, sw.reduced, sw.children
    clusters = td.clusters
    if y[sw.root] < m:
        raise BadSize("decomposition covers %d < m vertices" % y[sw.root])
    # deepest node whose subtree still covers m vertices
    i = sw.root
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
                if ops is not None:
                    ops.add(len(clusters[h]) + 1)
        # subtree sweeps also collected the current cluster; strip it
        for x in clusters[i]:
            if in_b[x]:
                in_b[x] = 0
                added -= 1
        if ops is not None:
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
            if ops is not None:
                ops.add(1)
    b = [x for x in range(1, n + 1) if in_b[x]]
    if ops is not None:
        ops.add(n)
    if not b or bsize > m:
        raise InternalInvariant("part size %d escaped (0, m]" % bsize)
    width = None if g is None else cut_width(g, in_b)
    return ApproxCutResult(b, rounds, width)
