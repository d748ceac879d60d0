"""Circular vertex labelings aligned with a decomposition path.

For a chosen tree path, vertices get labels 1..n so that for every path
node the vertices hanging below it, in any order, plus its own fresh
cluster vertices form one consecutive block, with the cluster vertices at
the block's end. Labels are read circularly, so shifting a label by the
target part size lands on the vertex "m positions later".
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariant, InvalidDecomposition
# the record's heaviest path, under the name perfbench traces
from .treedec import _record_path as heaviest_path
from .util import UNCOUNTED


@dataclass(slots=True)
class PLabeling:
    """Label arrays for one path of a decomposition, all indexed by label.

    `n` is the current vertex count; `vertex_of[lab]` is the vertex with
    label lab and `flags[lab]` is 1 when that vertex lies in a path
    cluster, else 0 (index 0 of both holds 0). Nodes are positions of the
    labeled decomposition's positional form, whose `clusters` and `ids`
    the labeling keeps and no other part of it. `path_nodes` lists the
    path in label order, and `ends`, aligned with it, the last label of
    each node's block: the blocks partition 1..n in path order, so their
    ends describe them. A block holds the node's hanging part first, in
    any order (built in reverse preorder), then its fresh cluster
    vertices; no step reads the order inside a hanging part. A doubling
    step shrinks the instance by slicing the label arrays to the
    remainder's labels and the two path arrays to its blocks. `order` and
    `parents` are heaviest path's second sweep, a preorder from the path's
    first node and each entry's tree parent, and `hang` maps a path node
    to the spans of `order` that hold the trees hanging from it, as a flat
    tuple of one or two (start, end) pairs, `(s, e)` or `(s1, e1, s2,
    e2)`: the trees visited after the next path node's subtree, then those
    visited before it. A tree's root is a position whose parent is the
    node. A node without a key has none, as on a covering labeling, whose
    steps are all direct and whose `order` and `parents` are None.
    """

    clusters: list
    ids: range | list
    n: int
    vertex_of: list
    flags: bytes
    path_nodes: list
    ends: array
    hang: dict
    order: list | None
    parents: list | None

    def blocks(self):
        """Per path node: (first label, first cluster-vertex label, last label).

        Hanging vertices occupy the first span of a block, the node's fresh
        cluster vertices the rest. Blocks appear in path order, and their
        labels run from 1 to n without a gap.
        """
        core, out, a = self.flags, {}, 1
        for i, b in zip(self.path_nodes, self.ends):
            r = core.find(1, a, b + 1)
            if r < 0:
                raise InternalInvariant("path node %r holds no cluster vertex"
                                        % self.ids[i])
            out[i] = (a, r, b)
            a = b + 1
        if a != self.n + 1:
            raise InternalInvariant("blocks end at label %d, not at n = %d"
                                    % (a - 1, self.n))
        return out

    def relative_weight(self):
        return Fraction(self.flags.count(1), self.n)

    def hanging_tree(self, i, a, b, ops=UNCOUNTED):
        """The trees hanging from path node i, which hold labels a..b-1, as
        one tree in the form the approximate cut reads: `parent[k]` is the
        position of k's parent, every parent before its children, and
        `clusters[k]` is k's cluster renumbered to local labels 1..b-a in
        label order, the other vertices dropped.

        Node i comes first, with an empty cluster, then its spans in
        stored order, the trees of each from last to first, each tree
        top-down. The tree is then rooted at its node of smallest id: the
        nodes from there up to i come first, bottom-up, the others keep
        their order."""
        order, parents, cls = self.order, self.parents, self.clusters
        loc = dict(zip(self.vertex_of[a:b], range(1, b - a + 1)))
        nodes, up, clusters = [i], [0], [[]]
        anc = [0]  # positions from i down to the last node listed
        spans = self.hang.get(i, ())
        for k in range(0, len(spans), 2):
            end = spans[k + 1]
            for q in range(end - 1, spans[k] - 1, -1):
                if parents[q] != i:  # not a tree's root
                    continue
                for r in range(q, end):  # the tree rooted at q
                    while nodes[anc[-1]] != parents[r]:
                        anc.pop()
                    up.append(anc[-1])
                    anc.append(len(nodes))
                    nodes.append(order[r])
                    clusters.append(list(filter(None, map(loc.get,
                                                          cls[order[r]]))))
                end = q
        ops.add(sum(map(len, map(cls.__getitem__, nodes[1:]))) + len(nodes) - 1)
        low = nodes.index(min(nodes, key=self.ids.__getitem__))
        if not low:
            return up, clusters
        chain = [low]  # positions from the smallest node up to i
        while chain[-1]:
            chain.append(up[chain[-1]])
        on = set(chain)
        new = chain + [k for k in range(len(up)) if k not in on]
        at = [0] * len(up)  # the new position of each old one
        for k, old in enumerate(new):
            at[old] = k
        parent = [0, *range(len(chain) - 1),
                  *(at[up[old]] for old in new[len(chain):])]
        return parent, [clusters[old] for old in new]


def build_plabeling(norm, ops=UNCOUNTED):
    """Construct the label arrays for the heaviest path of normalization's
    record `norm`; the labeling keeps the clusters and ids of `norm.form`,
    and the record drops its form once the path is found, so a contracted
    output's neighbor lists die before the label arrays are allocated.

    A record whose normalization sweep covered every vertex needs no
    cluster read: its tree is the heaviest path, labeled from the smallest
    node in the orders the sweep met the nodes and the vertices, with
    every vertex a path vertex and no hanging tree, so every step on it is
    direct.

    Otherwise heaviest path hands on its path and its second sweep's
    preorder; the path is labeled in that orientation, and the hanging
    trees are cut from the preorder as spans of it, which the labeling
    keeps. Each node's block holds its hanging part first, in any order
    (built in reverse preorder), then its fresh cluster vertices. A path
    cluster is read twice: once to mark its vertices as path vertices,
    before the node's hanging part is labeled, and once to label them.
    This relies on cluster connectivity: a hanging vertex that also lies
    in a path cluster lies in the cluster of the path node it hangs from,
    which is marked first, so it is labeled with that node's cluster
    vertices. Since no normalized cluster is nested in a neighbor's,
    connectivity also makes every path node add a vertex no earlier node
    held; one that adds none raises InvalidDecomposition. On other broken
    inputs a vertex shared between a hanging tree and a later path cluster
    is labeled in the hanging span but flagged as a path vertex, which can
    change the relative weight and the cut; the engine still raises
    InternalInvariant on a cut wider than its bound.
    """
    path, preorder = heaviest_path(norm, ops)
    clusters, ids, top = norm.form.clusters, norm.form.ids, norm.form.top
    norm.form = None
    if preorder is None:
        vertex_of = norm.vertex_of
        n = len(vertex_of) - 1
        ops.add(n + len(path))
        return PLabeling(clusters, ids, n, vertex_of, b"\0" + b"\1" * n,
                         path, norm.ends, {}, None, None)
    order, parents = preorder
    hang = _hanging_trees(path, order, parents)
    vertex_of, flags, ends = _assign_labels(clusters, ids, top, path, hang,
                                            order)
    ops.add(len(norm.nodes) + sum(map(len, map(clusters.__getitem__, path))))
    return PLabeling(clusters, ids, len(vertex_of) - 1, vertex_of, flags,
                     path, ends, hang, order, parents)


def _hanging_trees(path, order, parents):
    """Hanging trees: the components of the tree minus the path's edges,
    keyed by the path node they attach to, each node's as a flat tuple of
    one or two (start, end) spans of `order`.

    `order` and `parents` are a DFS preorder rooted at `path[0]` and each
    entry's parent. Every hanging tree is a contiguous run of it that
    starts at a child of a path node and ends at the next path node or the
    next run's start. A node's runs sit on the two sides of the next path
    node's subtree, so they make at most two spans: the preorder is cut
    from its end, and a run that ends where the node's last span starts
    extends that span. A node without hanging trees gets no key.
    """
    on_path = set(path)
    hang = {}
    node = None  # the node whose span is being cut, from `start` to `stop`
    end = stop = start = len(order)
    for q in range(end - 1, 0, -1):
        if order[q] in on_path:
            end = q
            continue
        p = parents[q]
        if p in on_path:
            if p != node or end != start:  # not adjacent: a new span
                if node is not None:
                    hang[node] = hang.get(node, ()) + (start, stop)
                node, stop = p, end
            start = end = q
    if node is not None:
        hang[node] = hang.get(node, ()) + (start, stop)
    return hang


def _assign_labels(clusters, ids, top, path, hang, order):
    """(vertex_of, flags, ends) for `path`, whose hanging trees `hang`
    holds as spans of `order`; `ends` holds each node's last label, and
    `top` is the largest vertex of any cluster.

    A node's block holds its hanging part first, in any order, built here
    in reverse preorder (its spans in stored order, each walked from its
    end), then its fresh cluster vertices; the node's cluster is marked
    as path vertices before its hanging part, so a hanging vertex that
    also lies in it waits for the cluster part. Raises
    InvalidDecomposition, naming the node by its id, when a path node adds
    no cluster vertex that no earlier node held, which cluster
    connectivity rules out on a normalized decomposition. The flags are
    read from the path-vertex marks once every block is labeled."""
    labeled = bytearray(top + 1)
    is_pv = bytearray(top + 1)
    vertex_of = [0]
    ends = array("l")
    append = vertex_of.append
    for i in path:
        cl = clusters[i]
        for x in cl:
            is_pv[x] = 1
        spans = hang.get(i, ())
        for k in range(0, len(spans), 2):
            for q in range(spans[k + 1] - 1, spans[k] - 1, -1):
                for x in clusters[order[q]]:
                    if not is_pv[x] and not labeled[x]:
                        labeled[x] = 1
                        append(x)
        hanging_end = len(vertex_of)
        for x in cl:
            if not labeled[x]:
                labeled[x] = 1
                append(x)
        end = len(vertex_of)
        if end == hanging_end:
            raise InvalidDecomposition(
                "path node %r adds no vertex: cluster connectivity fails"
                % ids[i])
        ends.append(end - 1)
    return vertex_of, bytes(map(is_pv.__getitem__, vertex_of)), ends
