"""Undirected graphs on dense vertex ids 1..n and cut widths.

Graphs are treated as immutable after construction and are safe to share
between callers; nothing in the package mutates an existing Graph.
"""
from __future__ import annotations

from itertools import chain, compress

from .errors import GraphFormatError, NotATree, PartitionInvalid
from .util import no_gc, vertex_array


class Graph:
    """Simple undirected graph: no loops, no parallel edges."""

    __slots__ = ("n", "adj", "m_edges")

    @no_gc
    def __init__(self, n, edges):
        if type(n) is not int:
            raise GraphFormatError("vertex count %r is not an int" % (n,))
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        adj = vertex_array(lambda k: [[] for _ in range(k)], n,
                           GraphFormatError)
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
        except (TypeError, ValueError, ArithmeticError) as exc:
            # `edges` not iterable, a pair of another length, or an endpoint
            # that is not an int (a float fails at the adj index, a Decimal
            # NaN at the range check with decimal.InvalidOperation)
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
        """One BFS from vertex 1 (none when n = 0): connected when it
        reaches all n vertices."""
        return self.n == 0 or _farthest(self, 1)[2] == self.n

    def is_tree(self):
        return self.n >= 1 and self.m_edges == self.n - 1 and self.is_connected()


def check_graph(g):
    """Raise GraphFormatError unless g is a Graph."""
    if not isinstance(g, Graph):
        raise GraphFormatError("g must be a Graph, not %s" % type(g).__name__)


_FLIP = bytes([1, 0]) + bytes(range(2, 256))  # swaps the two sides


def cut_width(g, side):
    """Number of edges of g whose endpoints lie on different sides.

    `side` is a bytes or bytearray of length n + 1 holding the side of each
    vertex at its index (index 0 unused): 1 for the vertices of one side B,
    0 for the others. Any other byte at 1..n raises PartitionInvalid. The
    width is the same over either side, so it is summed over the side with
    fewer vertices, B on a tie: its degree sum minus the edge ends inside
    it, which are its vertices' neighbors on the same side.
    """
    check_graph(g)
    if not isinstance(side, (bytes, bytearray)) or len(side) != g.n + 1:
        raise PartitionInvalid("side must be bytes or a bytearray of length %d"
                               % (g.n + 1))
    ones = side.count(1, 1)
    if side.count(0, 1) + ones != g.n:
        raise PartitionInvalid("side bytes must be 0 or 1")
    if 2 * ones > g.n:  # index 0 may flip too: vertex 0 has no edges
        side = side.translate(_FLIP)
    degrees = sum(map(len, compress(g.adj, side)))
    inside = sum(map(side.__getitem__,
                     chain.from_iterable(compress(g.adj, side))))
    return degrees - inside


def max_degree(g):
    check_graph(g)
    return max(map(len, g.adj))


def _farthest(g, s):
    """One BFS from s, level by level. Return the smallest vertex of its
    last level, the BFS parents (0 at s, -1 off s's component) and the
    number of vertices it reached."""
    parent = [-1] * (g.n + 1)
    parent[s] = 0
    frontier = [s]
    reached = 0
    while frontier:
        reached += len(frontier)
        last = frontier
        frontier = []
        for v in last:
            for w in g.adj[v]:
                if parent[w] == -1:
                    parent[w] = v
                    frontier.append(w)
    return min(last), parent, reached


def _tree_path(g):
    """A longest path of g and the tree's parents rooted at the path's
    first vertex, from two BFS sweeps and no other walk.

    The first sweep runs from vertex 1 and doubles as the tree check: with
    n - 1 edges, g is a tree when that sweep reaches all n vertices, and
    otherwise NotATree is raised. The second sweep runs from the first
    one's farthest vertex a, and its parents lead back to a from its own
    farthest vertex b. Ties go to smaller vertex ids at both sweeps.
    """
    check_graph(g)
    if g.n < 1 or g.m_edges != g.n - 1:
        raise NotATree("g must be a connected acyclic graph")
    a, _, reached = _farthest(g, 1)
    if reached != g.n:
        raise NotATree("g must be a connected acyclic graph")
    b, parent, _ = _farthest(g, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path, parent


def longest_path_in_tree(g):
    """Vertex sequence of a longest path of tree g, from a to b: two BFS
    sweeps, the first from vertex 1 to its farthest vertex a, which also
    checks that g is a tree, the second from a to its farthest vertex b.

    Ties are broken toward smaller vertex ids at both sweeps. A g that is
    not a tree raises NotATree.
    """
    return _tree_path(g)[0]
