"""Undirected graphs on dense vertex ids 1..n and cut widths.

Graphs are treated as immutable after construction and are safe to share
between callers; nothing in the package mutates an existing Graph.
"""
from __future__ import annotations

from itertools import chain, compress

from .errors import GraphFormatError, NotATree, PartitionInvalid
from .util import no_gc


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "adj", "m_edges")

    @no_gc
    def __init__(self, n, edges):
        if type(n) is not int:
            raise GraphFormatError("vertex count %r is not an int" % (n,))
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        adj = [[] for _ in range(n + 1)]
        seen = set()  # edge (u, v), u < v, as u * (n + 1) + v
        span = n + 1
        try:
            for u, v in edges:
                if u is True or v is True:  # False fails the range check
                    raise GraphFormatError("bool vertex id in edge (%r, %r)"
                                           % (u, v))
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError("vertex id out of range: (%r, %r)"
                                           % (u, v))
                if u == v:
                    raise GraphFormatError("loop at vertex %d" % u)
                key = u * span + v if u < v else v * span + u
                if key in seen:
                    raise GraphFormatError("parallel edge %r"
                                           % ((min(u, v), max(u, v)),))
                seen.add(key)
                adj[u].append(v)
                adj[v].append(u)
        except (TypeError, ValueError) as exc:
            # `edges` not iterable, a pair of another length, or an endpoint
            # that is not an int (a float fails at the adj index)
            raise GraphFormatError("bad edge list: %s" % exc) from None
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

    def is_tree(self):
        return self.n >= 1 and self.m_edges == self.n - 1 and self.is_connected()


def check_graph(g):
    """Raise GraphFormatError unless g is a Graph."""
    if not isinstance(g, Graph):
        raise GraphFormatError("g must be a Graph, not %s" % type(g).__name__)


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


def cut_width(g, side):
    """Number of edges of g whose endpoints lie on different sides.

    `side` is a bytes or bytearray of length n + 1 holding the side of each
    vertex at its index (index 0 unused): 1 for the vertices of one side B,
    0 for the others. Any other byte at 1..n raises PartitionInvalid. The
    width is the degree sum over B minus the edge ends inside B, which
    are the B neighbors of B's vertices.
    """
    check_graph(g)
    if not isinstance(side, (bytes, bytearray)) or len(side) != g.n + 1:
        raise PartitionInvalid("side must be bytes or a bytearray of length %d"
                               % (g.n + 1))
    if side.count(0, 1) + side.count(1, 1) != g.n:
        raise PartitionInvalid("side bytes must be 0 or 1")
    degrees = sum(map(len, compress(g.adj, side)))
    inside = sum(map(side.__getitem__,
                     chain.from_iterable(compress(g.adj, side))))
    return degrees - inside


def max_degree(g):
    check_graph(g)
    return max(map(len, g.adj))


def _farthest(g, s):
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


def longest_path_in_tree(g):
    """Vertex sequence of a longest path, found by two BFS sweeps.

    Ties are broken toward smaller vertex ids at both sweeps.
    """
    check_graph(g)
    if not g.is_tree():
        raise NotATree("longest_path_in_tree needs a connected acyclic graph")
    a, _, _ = _farthest(g, 1)
    b, _, parent = _farthest(g, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path
