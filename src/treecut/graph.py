"""Undirected graphs on dense vertex ids 1..n, partitions, and cut widths.

Graphs are treated as immutable after construction and are safe to share
between callers; nothing in the package mutates an existing Graph.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import GraphFormatError, NotAForest, NotATree, PartitionInvalid


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "adj", "m_edges")

    def __init__(self, n, edges):
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        adj = [[] for _ in range(n + 1)]
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError("vertex id out of range: (%r, %r)" % (u, v))
            if u == v:
                raise GraphFormatError("loop at vertex %d" % u)
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError("parallel edge %r" % (key,))
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = adj
        self.m_edges = len(seen)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def edges(self):
        """Yield each edge once as (u, v) with u < v."""
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def is_connected(self):
        if self.n == 0:
            return True
        return len(_component(self, 1)) == self.n

    def is_forest(self):
        seen = [False] * (self.n + 1)
        for s in self.vertices:
            if seen[s]:
                continue
            # iterative DFS with parent tracking; a revisit means a cycle
            stack = [(s, 0)]
            seen[s] = True
            while stack:
                v, parent = stack.pop()
                for w in self.adj[v]:
                    if w == parent:
                        parent = 0  # skip the parent edge exactly once
                        continue
                    if seen[w]:
                        return False
                    seen[w] = True
                    stack.append((w, v))
        return True

    def is_tree(self):
        return self.n >= 1 and self.m_edges == self.n - 1 and self.is_connected()


def _component(g, s):
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


class Partition:
    """Partition of 1..n into labeled classes; class 0 is conventionally B."""

    __slots__ = ("n", "class_of")

    def __init__(self, n, classes):
        class_of = [-1] * (n + 1)
        for idx, cls in enumerate(classes):
            for v in cls:
                if not (1 <= v <= n):
                    raise PartitionInvalid("vertex %r out of range" % (v,))
                c = class_of[v]
                if c != -1:
                    if c == idx:
                        continue  # repeated within its own class
                    raise PartitionInvalid("vertex %d in two classes" % v)
                class_of[v] = idx
        try:
            v = class_of.index(-1, 1)
        except ValueError:
            pass  # every vertex is covered
        else:
            raise PartitionInvalid("uncovered vertices, e.g. %d" % v)
        self.n = n
        self.class_of = class_of


def cut_width(g, partition):
    """Number of edges of g whose endpoints lie in different classes.

    `partition` is a Partition, an iterable of vertex collections covering
    the vertex set disjointly (empty classes allowed), or a side array: a
    bytes or bytearray of length n + 1 holding the class of each vertex at
    its index (index 0 unused), taken as is.
    """
    if isinstance(partition, (bytes, bytearray)):
        if len(partition) != g.n + 1:
            raise PartitionInvalid("side array has length %d, wanted %d"
                                   % (len(partition), g.n + 1))
        cls = partition
    else:
        if not isinstance(partition, Partition):
            partition = Partition(g.n, list(partition))
        cls = partition.class_of
    crossing = 0
    for u, nbrs in enumerate(g.adj):
        c = cls[u]
        for v in nbrs:
            if cls[v] != c:
                crossing += 1
    return crossing // 2  # each crossing edge is seen from both ends


def max_degree(g):
    return max(map(len, g.adj))


def _farthest(g, s, allowed=None):
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
                if dist[w] == -1 and (allowed is None or allowed[w]):
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    best = s
    for v in order:
        if dist[v] > dist[best] or (dist[v] == dist[best] and v < best):
            best = v
    return best, dist[best], parent


def longest_path_in_tree(g):
    """Vertex sequence of a longest path, found by two BFS sweeps.

    Ties are broken toward smaller vertex ids at both sweeps.
    """
    if not g.is_tree():
        raise NotATree("longest_path_in_tree needs a connected acyclic graph")
    a, _, _ = _farthest(g, 1)
    b, _, parent = _farthest(g, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def relative_diameter(g):
    """Sum of longest-path orders over components, divided by n (exact).

    Defined for forests only.
    """
    if g.n == 0:
        raise NotAForest("empty graph has no relative diameter")
    if not g.is_forest():
        raise NotAForest("relative diameter is only defined for forests")
    seen = [False] * (g.n + 1)
    total = 0
    for s in g.vertices:
        if seen[s]:
            continue
        comp = _component(g, s)
        for v in comp:
            seen[v] = True
        allowed = [False] * (g.n + 1)
        for v in comp:
            allowed[v] = True
        a, _, _ = _farthest(g, min(comp), allowed)
        _, d, _ = _farthest(g, a, allowed)
        total += d + 1  # path order = edge count + 1
    return Fraction(total, g.n)
