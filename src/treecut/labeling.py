"""Circular vertex labelings aligned with a decomposition path.

For a chosen tree path, vertices get labels 1..n so that for every path
node the vertices hanging below it plus its own fresh cluster vertices form
one consecutive block, with the cluster vertices at the block's end. Labels
are read circularly, so shifting a label by the target part size lands on
the vertex "m positions later".
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import InternalInvariant, RedundantPath
from .treedec import Normalized, _node_dfs, heaviest_path


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

    def core(self):
        """Path flags by label: byte lab is 1 when the vertex labeled lab
        lies in a path cluster, else 0; byte 0 is 0."""
        return bytes(map(self.is_path_vertex.__getitem__, self.vertex_of))

    def blocks(self, core):
        """Per path node: (first label, first cluster-vertex label, last label).

        Hanging vertices occupy the first span of a block, the node's fresh
        cluster vertices the rest. Blocks appear in path order, and their
        labels run from 1 to n without a gap. `core` is `self.core()`.
        """
        node_at = list(map(self.path_node_of.__getitem__, self.vertex_of))
        size = Counter(node_at)
        size[node_at[0]] -= 1  # label 0 is unused
        out = {}
        a = 1
        for i in self.path_nodes:
            k = size[i]
            if not k:
                continue  # the node holds no current vertex
            b = a + k - 1
            if node_at[a:b + 1].count(i) != k:
                raise InternalInvariant("blocks out of path order")
            r = core.find(1, a, b + 1)
            if r < 0:
                raise InternalInvariant("path node %r holds no cluster vertex" % i)
            out[i] = (a, r, b)
            a = b + 1
        if a != self.n + 1:
            raise InternalInvariant("blocks out of path order")
        return out

    def relative_weight(self):
        return Fraction(self.core().count(1), self.n)


def build_plabeling(td, path_nodes=None, ops=None):
    """Construct the label arrays for a tree path of td (heaviest if omitted).

    `td` is a TreeDecomposition or the Normalized record of one; the
    labeling's `td` is the decomposition. The path is labeled in the given
    orientation, or reversed when that one does not start nonredundantly;
    RedundantPath is raised when neither works. By cluster connectivity a
    path node adds no new vertex exactly when its cluster is contained in
    its predecessor's, so labeling itself decides the orientation.

    A record whose normalization sweep covered every vertex needs no
    cluster read: its tree is the heaviest path, which is labeled from the
    smallest node, in the order in which the sweep met the vertices. Every
    vertex is then a path vertex and no node has a hanging tree.

    Otherwise the hanging trees are cut from the preorder of a DFS rooted
    at the path's first node, which walks no node twice: for a record,
    heaviest_path's second sweep, whose preorder the record hands on and
    this drops before the label arrays exist; for an explicit path or a
    bare decomposition, a DFS over the nodes. Then a path cluster is read
    once, or twice when hanging trees attach to its node. Like the
    heaviest-path sweeps, this relies on cluster connectivity: a vertex is
    marked as a path vertex when the first path node holding it labels it,
    and a hanging vertex that also lies in a path cluster lies in the
    cluster of the path node it hangs from, which is marked before its
    hanging vertices are labeled. A decomposition that breaks connectivity
    can get a different labeling: a vertex shared between a hanging tree
    and a later path cluster is labeled in the hanging span, marked or not,
    and the path may be labeled in the other orientation. The relative
    weight and the cut can change with it; the engine still raises
    InternalInvariant on a cut wider than its bound.
    """
    norm = td
    if isinstance(td, Normalized):
        td = td.td
    sweep = None
    if path_nodes is None:
        path_nodes, _ = heaviest_path(norm, ops=ops)
        if norm is not td:
            if norm.vertex_of is not None:
                return _covering_labeling(norm, path_nodes[::-1], ops)
            sweep, norm.second_sweep = norm.second_sweep, None
    clusters = td.clusters
    if sweep is None:
        sweep = _node_dfs(td.neighbors, dict.fromkeys(td.nodes, 0),
                          path_nodes[0])[2:]
    hang = _hanging_trees(path_nodes, *sweep)
    sweep = None  # gone before the label arrays are allocated
    work = len(td.nodes) + sum(map(len, map(clusters.__getitem__,
                                            path_nodes)))
    path = list(path_nodes)
    labels = _assign_labels(clusters, td.graph_n, path, hang)
    if labels is None:
        path.reverse()
        labels = _assign_labels(clusters, td.graph_n, path, hang)
        if labels is None:
            raise RedundantPath("neither end of the path is a nonredundant start")
    if ops is not None:
        ops.add(work)
    label_of, vertex_of, is_pv, path_node_of = labels
    return PLabeling(td, len(vertex_of) - 1, label_of, vertex_of, is_pv,
                     path_node_of, path, hang)


def _hanging_trees(path, order, parents):
    """Hanging trees: the components of the tree minus the path's edges,
    keyed by the path node they attach to, each as (child, parent) pairs
    in DFS order from that node.

    `order` and `parents` are a DFS preorder rooted at `path[0]` and each
    entry's parent. Every hanging tree is a contiguous run of it that
    starts at a child of a path node and ends at the next path node or the
    next run's start. A node's runs come in the reverse of its `neighbors`
    order, so the preorder is cut from its end, which appends each node's
    runs to its list in `neighbors` order.
    """
    on_path = set(path)
    hang = {i: [] for i in path}
    end = len(order)
    for q in range(end - 1, 0, -1):
        v = order[q]
        if v in on_path:
            end = q
            continue
        p = parents[q]
        if p in on_path:
            if end - q == 1:  # a leaf, the common case on caterpillars
                hang[p].append((v, p))
            else:
                hang[p] += zip(order[q:end], parents[q:end])
            end = q
    return hang


def _covering_labeling(norm, path, ops):
    """The labeling of a path from its smallest node, from the vertex order
    of the normalization sweep that covered every vertex."""
    vertex_of = norm.vertex_of
    n = len(vertex_of) - 1
    label_of = [0] * (n + 1)
    for k, x in enumerate(vertex_of):
        label_of[x] = k
    is_pv = bytearray(b"\x01") * (n + 1)
    is_pv[0] = 0
    if ops is not None:
        ops.add(n + len(path))
    return PLabeling(norm.td, n, label_of, vertex_of, is_pv,
                     norm.path_node_of, path, {i: [] for i in path})


def _assign_labels(clusters, n0, path, hang):
    """(label_of, vertex_of, is_path_vertex, path_node_of) for `path` in
    this orientation, or None when some path node adds no new cluster
    vertex."""
    label_of = [0] * (n0 + 1)
    path_node_of = [0] * (n0 + 1)
    is_pv = bytearray(n0 + 1)
    vertex_of = [0]
    append = vertex_of.append
    k = 0
    for i in path:
        cl = clusters[i]
        hanging_end = k
        if hang[i]:
            # hanging vertices first (deepest nodes first), then fresh
            # cluster vertices, so cluster vertices close the block; the
            # node's own cluster is marked first, so a hanging vertex that
            # also lies in it waits for the cluster part
            for x in cl:
                is_pv[x] = 1
            for v, _ in reversed(hang[i]):
                for x in clusters[v]:
                    if not is_pv[x] and not label_of[x]:
                        k += 1
                        append(x)
                        label_of[x] = k
                        path_node_of[x] = i
            hanging_end = k
        for x in cl:
            if not label_of[x]:
                k += 1
                append(x)
                label_of[x] = k
                path_node_of[x] = i
                is_pv[x] = 1
        if k == hanging_end:
            return None
    return label_of, vertex_of, is_pv, path_node_of
