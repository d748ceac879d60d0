"""Circular vertex labelings aligned with a decomposition path.

For a chosen tree path, vertices get labels 1..n so that for every path
node the vertices hanging below it plus its own fresh cluster vertices form
one consecutive block, with the cluster vertices at the block's end. Labels
are read circularly, so shifting a label by the target part size lands on
the vertex "m positions later".
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariant, RedundantPath
from .treedec import heaviest_path, orient_path


class CircularIndex:
    """Arithmetic on labels 1..n read circularly."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def shift(self, label, k):
        """Label k positions after `label` (k may be negative)."""
        return (label - 1 + k) % self.n + 1

    def span(self, a, b):
        """Number of labels in the circular interval a..b inclusive."""
        return (b - a) % self.n + 1

    def labels(self, a, b):
        """Labels of the circular interval a..b in circular order."""
        cur = a
        while True:
            yield cur
            if cur == b:
                return
            cur = cur % self.n + 1


class PLabeling:
    """Label arrays for one path of a decomposition.

    Arrays are sized for the original vertex universe so the instance can
    shrink in place: `n` is the current vertex count, `vertex_of` maps the
    current labels back to vertices, and entries of `label_of` for departed
    vertices go stale (membership checks go through `vertex_of`).
    """

    __slots__ = ("td", "n", "label_of", "vertex_of", "is_path_vertex",
                 "path_node_of", "path_nodes", "hang")

    def __init__(self, td, n, label_of, vertex_of, is_path_vertex,
                 path_node_of, path_nodes, hang):
        self.td = td
        self.n = n
        self.label_of = label_of
        self.vertex_of = vertex_of
        self.is_path_vertex = is_path_vertex
        self.path_node_of = path_node_of
        self.path_nodes = path_nodes
        self.hang = hang

    def holds(self, x):
        """Is vertex x still part of the current instance?"""
        lab = self.label_of[x]
        return 1 <= lab <= self.n and self.vertex_of[lab] == x

    def current_vertices(self):
        return self.vertex_of[1:self.n + 1]

    def blocks(self):
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

    def core_count(self):
        """Number of current vertices lying in path clusters."""
        return sum(1 for lab in range(1, self.n + 1)
                   if self.is_path_vertex[self.vertex_of[lab]])

    def relative_weight(self):
        return Fraction(self.core_count(), self.n)


def build_plabeling(td, path_nodes=None, ops=None):
    """Construct the label arrays for a path of td (heaviest path if omitted).

    The path is oriented so it starts nonredundantly; RedundantPath is
    raised when neither orientation works.
    """
    if path_nodes is None:
        path_nodes, _ = heaviest_path(td, ops=ops)
    path = orient_path(td, path_nodes)
    n0 = td.graph_n
    path_set = set(path)
    is_pv = bytearray(n0 + 1)
    for i in path:
        for x in td.clusters[i]:
            is_pv[x] = 1
    # hanging trees: components of the tree minus path edges, keyed by the
    # path node they attach to; stored as (child, parent) pairs in DFS order
    hang = {}
    for i in path:
        pairs = []
        stack = [(w, i) for w in reversed(td.neighbors[i]) if w not in path_set]
        while stack:
            v, p = stack.pop()
            pairs.append((v, p))
            stack.extend((w, v) for w in td.neighbors[v] if w != p)
        hang[i] = pairs
    label_of = [0] * (n0 + 1)
    path_node_of = [0] * (n0 + 1)
    vertex_of = [0]
    work = 0
    for i in path:
        # hanging vertices first (deepest nodes first), then fresh cluster
        # vertices, so cluster vertices close the block
        for v, _ in reversed(hang[i]):
            for x in td.clusters[v]:
                if not is_pv[x] and not label_of[x]:
                    vertex_of.append(x)
                    label_of[x] = len(vertex_of) - 1
                    path_node_of[x] = i
        fresh = 0
        for x in td.clusters[i]:
            if not label_of[x]:
                vertex_of.append(x)
                label_of[x] = len(vertex_of) - 1
                path_node_of[x] = i
                fresh += 1
        if fresh == 0:
            raise RedundantPath("path node %r adds no cluster vertex" % i)
        work += len(td.clusters[i]) + len(hang[i]) + 1
    if ops is not None:
        ops.add(work)
    return PLabeling(td, len(vertex_of) - 1, label_of, vertex_of, is_pv,
                     path_node_of, path, hang)

