"""Tree decompositions: container, validity checks, and path machinery.

A decomposition holds a tree over node ids plus one vertex cluster per node.
Vertices refer to a host graph on 1..graph_n, but most operations only need
the clusters, so the host graph is passed in only where edges matter. The
constructor also lays the tree out by position (_Form), the one form that
validation, normalization, heaviest path, the labeling and the approximate
cut read; node ids reach them only through its position-to-id list.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, pairwise

from .errors import DecompositionFormatError, EmptyDecomposition
from .graph import _tree_path, check_graph
from .util import UNCOUNTED, check_int, no_gc


class TreeDecomposition:
    """Tree over node ids with a vertex cluster per node.

    Immutable by convention: no function of the package writes to a
    decomposition it is handed. Node ids are arbitrary ints; freshly built
    decompositions use dense ids starting at 1. `nodes`, `neighbors`,
    `clusters` and `graph_n` are the public view by node id; every phase
    of a cut reads the positional form (_Form) the constructor builds
    beside it in the same walk.
    """

    __slots__ = ("nodes", "neighbors", "clusters", "graph_n", "_form")

    @no_gc
    def __init__(self, nodes, edges, clusters, graph_n):
        try:
            nodes = list(nodes)
        except TypeError:
            raise DecompositionFormatError(
                "nodes %r are not a list" % (nodes,)) from None
        if not nodes:
            raise DecompositionFormatError("a decomposition needs at least one node")
        for i in nodes:
            if type(i) is not int:
                raise DecompositionFormatError("node id %r is not an int" % (i,))
        check_int(DecompositionFormatError, "graph_n", graph_n, 0)
        try:
            cluster_of = clusters.get
        except AttributeError:
            raise DecompositionFormatError(
                "clusters must map node ids to vertex lists, not %s"
                % type(clusters).__name__) from None
        try:
            n_edges = len(edges)
        except TypeError:
            raise DecompositionFormatError(
                "edges must be a list of node pairs, not %s"
                % type(edges).__name__) from None
        neighbors = {i: [] for i in nodes}
        if len(neighbors) != len(nodes):
            raise DecompositionFormatError("duplicate node ids")
        if n_edges != len(nodes) - 1:
            raise DecompositionFormatError("node/edge counts do not form a tree")
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise DecompositionFormatError("bad tree edge %r" % (e,)) from None
            if (type(a) is not int or type(b) is not int or a not in neighbors
                    or b not in neighbors or a == b):
                raise DecompositionFormatError("bad tree edge (%r, %r)" % (a, b))
            neighbors[a].append(b)
            neighbors[b].append(a)
        # connectivity: n-1 edges + connected = tree
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for w in neighbors[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nodes):
            raise DecompositionFormatError("decomposition tree is not connected")
        del seen  # before the cluster copies
        cl = {}
        top = 0
        for i in nodes:
            try:
                c = list(cluster_of(i, ()))
            except TypeError:
                raise DecompositionFormatError(
                    "cluster %r is not a list of vertices" % (i,)) from None
            for x in c:
                if type(x) is not int or not 1 <= x <= graph_n:
                    raise DecompositionFormatError(
                        "vertex %r in cluster %r is not an int in 1..%r"
                        % (x, i, graph_n))
                if x > top:
                    top = x
            if len(set(c)) != len(c):
                raise DecompositionFormatError("duplicate vertex in cluster %r" % i)
            cl[i] = c
        self._set(nodes, neighbors, cl, graph_n, top)

    @classmethod
    def _trusted(cls, nodes, edges, clusters, graph_n):
        """Unchecked constructor for decompositions the package builds itself.

        The caller guarantees what __init__ checks: `nodes` is a list of
        distinct ints, `edges` form a tree over them, and `clusters` maps
        every node, in `nodes` order, to a list of distinct ints in
        1..graph_n, and graph_n itself is in some cluster, so graph_n is the
        form's largest entry: grid_td, random_graph_with_td and
        tree_to_width1_td cover every vertex. The lists are kept, not
        copied.
        """
        td = cls.__new__(cls)
        neighbors = {i: [] for i in nodes}
        for a, b in edges:
            neighbors[a].append(b)
            neighbors[b].append(a)
        td._set(nodes, neighbors, clusters, graph_n, graph_n)
        return td

    def _set(self, nodes, neighbors, clusters, graph_n, top):
        """Fill the slots from the neighbor and cluster dicts, both in
        `nodes` order, and build the positional form from them: position p
        holds `nodes[p - 1]` and its lists. Where the ids are 1..k in that
        order they are the positions, and the form holds the neighbor
        dict's own lists; otherwise it maps them through one id to position
        dict. `top`, the largest cluster entry, is the caller's: no cluster
        entry is read here."""
        k = len(nodes)
        if nodes == [*range(1, k + 1)]:
            ids, adj = range(k + 1), [[], *neighbors.values()]
        else:
            ids, at = [None, *nodes], dict(zip(nodes, range(1, k + 1)))
            adj = [[], *([at[j] for j in neighbors[i]] for i in nodes)]
        self._form = _Form(ids, adj, [(), *clusters.values()],
                           ids.index(min(nodes)), top)
        self.nodes = nodes
        self.neighbors = neighbors
        self.clusters = clusters
        self.graph_n = graph_n

    def edges(self):
        for a in self.nodes:
            for b in self.neighbors[a]:
                if a < b:
                    yield (a, b)

    def width(self):
        return max(len(self.clusters[i]) for i in self.nodes) - 1

    def size(self):
        """Node count plus total cluster volume."""
        return len(self.nodes) + sum(len(self.clusters[i]) for i in self.nodes)

    def to_json(self):
        """The decomposition as JSON, read back by from_json as it is:
        `nodes` and each cluster in stored order, and the edges in an
        order from which the constructor rebuilds every neighbor list, as
        neighbor order decides the cut's ties. A walk from `nodes[0]` goes
        through each node's neighbors in order; it writes the edge to the
        node it came from at that neighbor and descends at every other
        one, so each node meets its edges in its own list's order."""
        nbrs, root = self.neighbors, self.nodes[0]
        edges = []
        stack = [(root, None, iter(nbrs[root]))]
        while stack:  # iterative: paths run 3e4 nodes deep
            i, up, rest = stack[-1]
            for j in rest:
                if j == up:
                    edges.append([up, i])
                else:
                    stack.append((j, i, iter(nbrs[j])))
                    break
            else:
                stack.pop()
        return json.dumps({
            "graph_n": self.graph_n,
            "nodes": [{"id": i, "cluster": self.clusters[i]}
                      for i in self.nodes],
            "edges": edges,
        })

    @classmethod
    @no_gc
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            nodes = [rec["id"] for rec in obj["nodes"]]
            clusters = {rec["id"]: rec["cluster"] for rec in obj["nodes"]}
            edges = obj["edges"]
            graph_n = obj.get("graph_n")
            del obj  # its node records, before the copies
            if graph_n is None:  # the largest int entry, for the checks
                graph_n = max((x for c in clusters.values() if type(c) is list
                               for x in c if type(x) is int and x > 0),
                              default=0)
            return cls(nodes, edges, clusters, graph_n)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DecompositionFormatError("bad decomposition JSON: %s" % exc)


@dataclass(slots=True)
class _Form:
    """A decomposition tree by position 1..k, the one form every phase of
    a cut reads: `ids[p]` is the node id at position p (a range when the
    ids are the positions), `neighbors[p]` lists the positions adjacent to
    p in the order of the tree's edges, and `clusters[p]` is its cluster;
    index 0 of each is unused, its lists empty. `root` is the position of
    the smallest id, and `top` the largest vertex of any cluster (0 when
    there is none), which sizes every per-vertex array of a cut.

    A TreeDecomposition's form lists its nodes in `nodes` order and shares
    their cluster lists. Normalization's contracted output is a form of
    its own, its ids the positions, with no TreeDecomposition around it
    inside a cut.
    """
    ids: range | list
    neighbors: list
    clusters: list
    root: int
    top: int


def check_decomposition(td):
    """Raise DecompositionFormatError unless td is a TreeDecomposition."""
    if not isinstance(td, TreeDecomposition):
        raise DecompositionFormatError(
            "td must be a TreeDecomposition, not %s" % type(td).__name__)


@dataclass
class ValidityReport:
    vertex_cover_ok: bool
    edge_cover_ok: bool
    connectivity_ok: bool
    witness: str
    width: int

    @property
    def ok(self):
        return self.vertex_cover_ok and self.edge_cover_ok and self.connectivity_ok


@no_gc
def validate(g, td):
    """Check the three decomposition properties against g.

    One breadth-first walk from td.nodes[0] reads each cluster at most twice
    and each edge at most twice, with no per-cluster sets; walk positions
    serve as stamps. A vertex of a child cluster that is missing from the
    parent cluster is a head, the top of one of its occurrence subtrees, and
    a second head breaks connectivity. While connectivity holds, an edge
    fits exactly when the cluster at the later of its endpoints' tops holds
    the other endpoint (Gavril's subtree-intersection lemma); that is tested
    right after the cluster is read. Once connectivity fails, the edge check
    falls back to cluster sets. The walk reads td's positional form, and
    its stamps span the graph's order plus one slot per distinct cluster
    entry above it, not graph_n or the largest entry; such entries are
    numbered upward from g.n + 1 on copies of the clusters, and a witness
    names the original vertex. A `g` that is not a Graph raises
    GraphFormatError, and a `td` that is not a TreeDecomposition
    DecompositionFormatError.
    """
    check_graph(g)
    check_decomposition(td)
    gn, adj = g.n, g.adj
    form = td._form
    clusters, neighbors = form.clusters, form.neighbors
    above = ()  # the distinct entries above gn, ascending
    if form.top > gn:  # entry above[i] is stamped as vertex gn + 1 + i
        above = sorted({x for c in clusters for x in c if x > gn})
        rank = dict(zip(above, range(gn + 1, gn + 1 + len(above))))
        clusters = [[rank.get(x, x) for x in c] for c in clusters]
    n = gn + len(above)
    top = [0] * (n + 1)   # walk position of the node heading x's first subtree
    mark = [0] * (n + 1)  # position of the parent whose children are scanned
    own = [0] * (n + 1)   # position of the child scanned last
    extra = []  # vertices met at a second or later head
    misfit = None
    order, parent_of = [1], [None]  # breadth-first order from td.nodes[0]
    for x in clusters[1]:
        top[x] = 1
    q = 0
    while q < len(order):
        i, p = order[q], parent_of[q]
        nbrs = neighbors[i]
        q += 1
        if len(nbrs) == (p is not None):
            continue  # a leaf: no children to scan
        for x in clusters[i]:
            mark[x] = q
        for j in nbrs:
            if j == p:
                continue
            order.append(j)
            parent_of.append(i)
            t = len(order)
            heads = []
            for x in clusters[j]:
                if mark[x] != q:
                    if top[x]:
                        extra.append(x)
                    else:
                        top[x] = t
                        heads.append(x)
                own[x] = t
            if misfit is not None or extra:
                continue
            for x in heads:
                if x <= gn:
                    for w in adj[x]:
                        if own[w] != t and 0 < top[w] < t:
                            misfit = (x, w) if x < w else (w, x)
                            break
                    if misfit is not None:
                        break
    foreign = next((x for x in range(gn + 1, n + 1) if top[x]), None)
    uncovered = [x for x in range(1, gn + 1) if not top[x]] \
        if 0 in top[1:gn + 1] else []
    if extra:
        misfit = _misfit_by_sets(g, clusters)
    elif misfit is None:
        # an edge at an uncovered endpoint fits nowhere
        misfit = next(((x, w) if x < w else (w, x)
                       for x in uncovered for w in adj[x]), None)
    if foreign is not None:
        witness = "cluster %r holds foreign vertex %r" % (
            form.ids[order[top[foreign] - 1]], above[foreign - gn - 1])
    elif uncovered:
        witness = "vertex %r in no cluster" % (uncovered[0],)
    elif misfit is not None:
        witness = "edge (%r, %r) fits in no cluster" % misfit
    elif extra:
        x = extra[0]
        witness = "vertex %r appears in %d separate subtrees" % (
            x, 1 + extra.count(x))
    else:
        witness = ""
    return ValidityReport(foreign is None and not uncovered, misfit is None,
                          not extra, witness, max(map(len, clusters)) - 1)


def _misfit_by_sets(g, clusters):
    """First edge of g that no cluster of the list `clusters` holds, or
    None.

    Correct whether or not cluster connectivity holds; validate falls back
    to it once connectivity has failed.
    """
    homes = {}
    cluster_sets = list(map(set, clusters))
    for i, s in enumerate(cluster_sets):
        for x in s:
            homes.setdefault(x, []).append(i)
    for u, v in g.edges():
        if not any(v in cluster_sets[i] for i in homes.get(u, ())):
            return (u, v)
    return None


@dataclass
class Normalized:
    """What normalization found, handed on to the labeling of one cut.

    `form` is the nonredundant decomposition's positional form: the
    input's own when nothing contracted, otherwise the contracted one,
    whose ids 1..k are its positions. `nodes` is the node list (a range
    after a contraction). When a
    pass-through's sweep covered all graph_n vertices, the tree is a path
    from the smallest node, and the sweep met the vertices in the order of
    that path's labeling oriented from the smallest node: `vertex_of`
    lists them from index 1 (index 0 holds 0), `path` lists the positions
    in the order the sweep met them, which is that path from the smallest
    node, and `ends`, aligned with `path`, the running sums of their fresh
    counts, the last label of each node's block, which the labeling keeps.
    All three are None otherwise.

    `first_sweep` holds, on every record that did not cover, the records
    of heaviest path's first sweep over `form` from its root, as a pair:
    each position's fresh count (the vertices it added that no earlier
    node held), as a list by position, and the chain from the sweep's
    endpoint, the heavy end, up to the root, the only tree parents the
    second sweep reads. None on a covering record. `form` and
    `first_sweep` live only until the labeling: its heaviest path takes
    `first_sweep` off the record, and build_plabeling drops `form` once
    the path is found.
    """
    form: _Form
    nodes: list | range
    vertex_of: list | None = None
    path: list | None = None
    ends: array | None = None
    first_sweep: tuple | None = None


@no_gc
def make_nonredundant(td):
    """Contract away nested adjacent clusters (see `normalize`).

    Returns `td` itself when nothing contracts, not a copy; callers must
    not mutate the result. Otherwise returns a new TreeDecomposition with
    dense node ids 1..k around normalization's contracted form, whose
    neighbor and cluster dicts hold the form's own lists. The input is
    never written to. A `td` that is not a TreeDecomposition raises
    DecompositionFormatError, and one whose clusters are all empty, the
    empty graph's included, EmptyDecomposition.
    """
    check_decomposition(td)
    form = normalize(td).form
    if form is td._form:
        return td
    out = TreeDecomposition.__new__(TreeDecomposition)
    nodes = list(form.ids[1:])
    out._set(nodes, dict(zip(nodes, islice(form.neighbors, 1, None))),
             dict(zip(nodes, islice(form.clusters, 1, None))), td.graph_n,
             form.top)
    return out


def normalize(td, ops=UNCOUNTED):
    """Contract away nested adjacent clusters; returns a Normalized record.

    One depth-first pass over td's positional form from its root, the
    smallest node id, puts every node in a class, whose cluster is that of
    the node heading it. Classes never merge: a node either starts a
    class, folds into its tree parent's class when its cluster adds no
    vertex unseen before, or takes over as head of that class when the
    head's cluster is nested in its own. Width never grows and any tree
    path of the input maps onto a tree path of the output covering at
    least the same vertices. Classes are numbered from 1 in the order they
    start, and the pass records the class of each node that heads none.

    The pass keeps, per class, the fresh counts of its members summed
    and the tree parent of the node that started it; these are the
    records of heaviest path's first sweep, which the record keeps as
    `first_sweep`. When no node joined another's class, the record holds
    td's form itself. Every node then heads its own class and the pass is
    exactly that first sweep; of its parents, the record keeps the chain
    from the pass's endpoint, the heavy end, up to the root. If its weight
    reached graph_n, every node but the root added a vertex unseen before,
    so all nodes lie on the path from the root to the heavy end: the tree
    is that path, whether or not cluster connectivity holds, and the pass
    met the nodes in that path's order and the vertices in its label
    order. The pass lists the vertices only when the node degrees allow
    that shape (the root's at most 1, every other at most 2), so other
    trees pay nothing for it, and such a covering record needs no sweep
    records. On such a path a class's tree parent is the previous class,
    so the pass keeps no parents there, and a record that does not cover
    takes each from the previous class's head. Every container of the
    pass that the record does not keep dies before normalize returns.

    When some node joined another's class, the record holds a new form
    with one position per class: each class's neighbors in the order of
    the input's tree edges (each edge listed from its end of smaller id,
    nodes in `td.nodes` order), without edges inside a class. Rooted at
    class 1, the root's, a class's tree parent is the class holding the
    tree parent of the node that started it. Under cluster connectivity a
    folded node adds no vertex, and a vertex of a class's final cluster
    met before the class started lies in that starter's tree parent, so in
    the parent class's cluster: the class's sum is its fresh count in the
    output. Summed down the class parents, these give each output node's
    path weight from class 1; a unique maximum is the heavy end, and a tie
    is broken by a sweep over the output's nodes alone (_node_dfs), which
    finds the heavy end where a sweep reading the output's clusters would.
    The record keeps the chain up the class parents from the heavy end to
    class 1.
    """
    form = td._form
    clusters, neighbors = form.clusters, form.neighbors
    if not any(clusters):
        raise EmptyDecomposition("every cluster is empty")
    root = form.root
    roots = [0]     # class -> position heading it; classes count from 1
    fresh_of = [0]  # class -> vertices its members held first
    up = [None]     # class -> tree parent of the node that started it
    at = [0] * len(neighbors)  # position that heads no class -> its class
    first = [None] * (form.top + 1)  # vertex -> node that first held it
    # vertices in the order first met, kept only when the tree may be a
    # path from the root
    met = [0] if len(neighbors[root]) <= 1 and max(map(len, neighbors)) <= 2 \
        else None
    best, best_w = root, -1  # first node of greatest path weight from root
    stack = [(root, None, 0, None)]  # node, tree parent, weight, its class
    pop, push = stack.pop, stack.append
    while stack:
        i, tree_parent, w, pc = pop()
        x = clusters[i]
        if met is None:
            fresh = 0
            for v in x:
                if first[v] is None:
                    first[v] = i
                    fresh += 1
        else:
            before = len(met)
            for v in x:
                if first[v] is None:
                    first[v] = i
                    met.append(v)
            fresh = len(met) - before
        w += fresh
        if w > best_w:
            best, best_w = i, w
        if pc is None or fresh and len(x) - fresh != len(clusters[roots[pc]]):
            c = len(roots)
            roots.append(i)
            fresh_of.append(fresh)
            if met is None:
                up.append(tree_parent)
        elif fresh:
            c = at[roots[pc]] = pc  # head's cluster nested here: take over
            roots[pc] = i
            fresh_of[pc] += fresh
        else:
            c = at[i] = pc  # cluster nested in the head's: fold upward
        for j in neighbors[i]:
            if j != tree_parent:
                push((j, i, w, c))
    ops.add(sum(map(len, clusters)) + len(neighbors) - 1)
    del first  # before the outputs are built
    if met is not None:
        if len(roots) == len(neighbors) and best_w == td.graph_n:
            del roots[0], fresh_of[0]
            return Normalized(form, td.nodes, met, roots,
                              array("l", accumulate(fresh_of)))
        up = [None, None, *roots[1:-1]]
    del met  # the vertex order is read by a covering record alone
    if len(roots) == len(neighbors):  # every node heads its own class
        # the only parents the second sweep reads: those up from `best`
        chain = _chain(roots, up, roots.index(best))
        del up, at
        # every node heads its class: the counts by position
        fresh = [0] * len(neighbors)
        for i, f in zip(roots, fresh_of):
            fresh[i] = f
        return Normalized(form, td.nodes, first_sweep=(fresh, chain))
    for c, i in enumerate(roots):
        at[i] = c  # now every position's class
    ids = form.ids
    out_neighbors = [[] for _ in roots]
    for a, nbrs in enumerate(neighbors):
        fa, ia = at[a], ids[a]
        for b in nbrs:
            if ia < ids[b]:
                fb = at[b]
                if fa != fb:
                    out_neighbors[fa].append(fb)
                    out_neighbors[fb].append(fa)
    heads = list(map(clusters.__getitem__, roots))
    del roots
    out = _Form(range(len(heads)), out_neighbors, heads, 1, form.top)
    up = [0, 0, *map(at.__getitem__, islice(up, 2, None))]
    del at
    # class ids follow start order, so a parent class precedes its children
    weight = fresh_of[:]
    for c in range(2, len(weight)):
        weight[c] += weight[up[c]]
    top = max(weight)
    if weight.count(top) == 1:
        end = weight.index(top)
        ops.add(len(heads) - 1)
    else:  # a tie: the node sweep's discovery order breaks it
        end = _node_dfs(out_neighbors, fresh_of, 1, ops)[0]
    chain = [end]
    while chain[-1] != 1:
        chain.append(up[chain[-1]])
    return Normalized(out, range(1, len(heads)),
                      first_sweep=(fresh_of, chain))


@dataclass
class WeightReport:
    path_weight: int
    relative_weight: Fraction


def _recording_sweep(form, ops=UNCOUNTED):
    """The first sweep of the public heaviest_path(td), the one that reads
    clusters: a DFS of td's positional form from its root position,
    returning (fresh, chain).

    `fresh` holds, by position, the vertices of each cluster that no node
    met before held, and `chain` runs from the sweep's endpoint, the first
    node in discovery order whose path from the root holds the most
    vertices, up to the root. Under cluster connectivity a vertex met
    before also lies in the parent's cluster, so `fresh[i]` is
    |C_i \\ C_parent|. A cut never runs it: normalization's pass hands
    these records on.
    """
    clusters, neighbors = form.clusters, form.neighbors
    fresh, parent = [0] * len(neighbors), [0] * len(neighbors)
    seen = bytearray(form.top + 1)
    best, best_w = form.root, -1
    stack = [(best, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, p, w = pop()
        k = 0
        for x in clusters[i]:
            if not seen[x]:
                seen[x] = 1
                k += 1
        fresh[i] = k
        parent[i] = p
        w += k
        if w > best_w:
            best, best_w = i, w
        for j in neighbors[i]:
            if j != p:
                push((j, i, w))
    ops.add(sum(map(len, clusters)) + len(neighbors) - 1)
    chain = [best]
    while chain[-1] != form.root:
        chain.append(parent[chain[-1]])
    return fresh, chain


def _node_dfs(neighbors, fresh, start, ops=UNCOUNTED):
    """The one sweep over nodes only: a DFS from `start` that adds up
    `fresh` along tree paths, in the recording sweep's push order.

    Returns (end, weight, preorder, parents): the first node of greatest
    weight in discovery order, its weight, the nodes in discovery order
    and, aligned with them by position, each one's tree parent (None at
    `start`). Each subtree is finished before the next sibling is popped,
    so every subtree is a contiguous run of the preorder.
    """
    order, parents = [], []
    visit, attach = order.append, parents.append
    best, best_w = start, -1
    stack = [(start, None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, p, w = pop()
        visit(i)
        attach(p)
        w += fresh[i]
        if w > best_w:
            best, best_w = i, w
        for j in neighbors[i]:
            if j != p:
                push((j, i, w))
    ops.add(len(order))
    return best, best_w, order, parents


def _sweep_from(form, fresh, chain, ops=UNCOUNTED):
    """Heaviest path from `chain[0]` over the positional `form`, from a
    first sweep's records.

    `chain` runs from the start up to the first sweep's root, and
    re-rooting at the start changes the tree parent only along it. There,
    under cluster connectivity, a node j whose old child c becomes its
    parent has the fresh count |C_j \\ C_c| = |C_j| - |C_c| +
    fresh_old(c), and the start itself |C_start|, so the fresh counts are
    turned around in place reading cluster lengths only. The sweep that
    follows is _node_dfs, and the path from the start to its end is read
    back from that sweep's own preorder by one backward scan (_chain).
    Returns (path, weight, (preorder, parents)). The ops count one per
    chain step and one per node swept.
    """
    clusters = form.clusters
    start = chain[0]
    below_fresh = fresh[start]
    fresh[start] = len(clusters[start])
    for below, j in pairwise(chain):
        was = fresh[j]
        fresh[j] = len(clusters[j]) - len(clusters[below]) + below_fresh
        below_fresh = was
    ops.add(len(chain) - 1)
    end, weight, order, parents = _node_dfs(form.neighbors, fresh, start, ops)
    path = _chain(order, parents, order.index(end))
    path.reverse()
    return path, weight, (order, parents)


def _chain(order, parents, q):
    """`order[q]` and its tree ancestors up to `order[0]`, from a DFS
    preorder and each entry's parent. A node's parent is the one entry
    equal to it before the node, so it is found scanning backward from the
    node, and all the ancestors by one backward scan from q."""
    chain = [order[q]]
    p = parents[q]
    for k in range(q - 1, -1, -1):
        if order[k] == p:
            chain.append(p)
            p = parents[k]
    return chain


def heaviest_path(td):
    """Tree path maximizing the union of its clusters, via two DFS sweeps.

    The first sweep runs from the smallest node id and is the only one
    that reads clusters: it records each node's fresh count and the chain
    from its endpoint up to the smallest node. The second runs from that
    endpoint over the nodes alone, with the records re-rooted there (see
    _sweep_from), and its endpoint closes the path. Ties stick with the
    first maximum in discovery order. Returns the node sequence, from the
    second sweep's start, and a weight report relative to the host graph
    order. A `td` that is not a TreeDecomposition, normalization's record
    included, raises DecompositionFormatError, and one whose clusters are
    all empty, the empty graph's included (its relative weight is
    undefined), EmptyDecomposition.

    Both sweeps count a node's vertices met before as already on its path;
    cluster connectivity makes that exact. Without it the counts can
    differ from the path's union, and the swept path need not be the
    heaviest.
    """
    check_decomposition(td)
    form = td._form
    path, weight, _ = _sweep_from(form, *_recording_sweep(form))
    if not weight:
        raise EmptyDecomposition("every cluster is empty")
    return (list(map(form.ids.__getitem__, path)),
            WeightReport(weight, Fraction(weight, td.graph_n)))


def _record_path(norm, ops):
    """heaviest_path on normalization's record `norm`, trusted as
    normalization built it; returns (path, preorder) for the labeling, by
    position of the record's form.

    Normalization's pass was the first sweep, so only the second runs,
    from the heavy end on the record's `first_sweep`, which this takes off
    the record; a contracted output's records sum the counts of each
    class's members, which cluster connectivity makes exact. `preorder`
    is that sweep's preorder from the path's first node and the parent of
    each entry, as two lists aligned by position, for the labeling to cut
    the hanging trees from. When normalization's pass covered every vertex
    (the record's `vertex_of` is set), every node but the smallest added a
    vertex, so the tree is the heaviest path: the record's `path`, from
    the smallest node, is returned as it is, without reading a cluster,
    and `preorder` is None. Without cluster connectivity the covering path
    can be longer than a sweep's.
    """
    if norm.vertex_of is not None:
        ops.add(len(norm.path))
        return norm.path, None
    records = norm.first_sweep
    norm.first_sweep = None
    path, _, preorder = _sweep_from(norm.form, *records, ops)
    return path, preorder


@no_gc
def tree_to_width1_td(g):
    """Width-1 decomposition of a tree: one node per edge, clusters are the
    edge endpoints, and a longest path of the tree maps onto a tree path of
    the decomposition (so its relative weight is at least the relative
    diameter).

    The tree is walked three times: the two BFS sweeps of
    `longest_path_in_tree`, the first of which checks that g is a tree,
    then one DFS from the path's first vertex over the second sweep's
    parents, which numbers the nodes in its preorder. A `g` that is not a
    Graph raises GraphFormatError, one that is not a tree NotATree."""
    spine, parent = _tree_path(g)
    if g.n == 1:
        return TreeDecomposition._trusted([1], [], {1: [1]}, 1)
    root = spine[0]
    # each non-root vertex owns its parent edge; a child is any neighbor
    # but the parent, and the spine successor comes first so spine edges
    # get consecutive ids
    stack = [w for w in reversed(g.adj[root]) if w != spine[1]] + [spine[1]]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        p = parent[v]
        for w in g.adj[v]:
            if w != p:
                stack.append(w)
    # the root owns no edge; node 1, its spine successor's, stands in for it
    node_of = [1] * (g.n + 1)
    for k, v in enumerate(order, 1):
        node_of[v] = k
    edges = [(node_of[v], node_of[parent[v]]) for v in order[1:]]
    clusters = {k: [parent[v], v] for k, v in enumerate(order, 1)}
    return TreeDecomposition._trusted(list(range(1, g.n)), edges, clusters,
                                      g.n)
