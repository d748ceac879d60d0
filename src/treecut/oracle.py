"""Independent reference computations for cross-checking the main code paths.

Everything here is deliberately naive (exhaustive search or a quadratic
dynamic program) and shares no machinery with the production algorithms.
"""
from __future__ import annotations

import itertools

from .errors import BadSize, NotATree, TreecutError
from .graph import check_graph
from .util import check_int


_BRUTE_LIMIT = 24
_DP_LIMIT = 5000


def _adj_masks(g):
    return [0] + [sum(1 << (w - 1) for w in g.adj[v]) for v in g.vertices]


def brute_force_min_cut_size_m(g, m):
    """Minimum width over all cuts with exactly m black vertices.

    A g that is not a Graph raises GraphFormatError, an m that is not an
    int in 0..n BadSize."""
    check_graph(g)
    n = g.n
    if n > _BRUTE_LIMIT:
        raise TreecutError("exhaustive search capped at n=%d" % _BRUTE_LIMIT)
    check_int(BadSize, "m", m, 0, n)
    masks = _adj_masks(g)
    best = None
    best_set = None
    for comb in itertools.combinations(range(1, n + 1), m):
        bm = 0
        for v in comb:
            bm |= 1 << (v - 1)
        width = sum((masks[v] & ~bm).bit_count() for v in comb)
        if best is None or width < best:
            best = width
            best_set = set(comb)
    return best, best_set


def brute_force_min_bisection(g):
    """Minimum bisection width by exhaustive search (n <= 24)."""
    check_graph(g)
    return brute_force_min_cut_size_m(g, g.n // 2)


def tree_dp_min_bisection(g, m=None):
    """Minimum bisection width of a tree by subtree dynamic programming.

    Two lists per vertex v: white[v][k] and black[v][k] hold the least
    width inside v's subtree when it has k black vertices and v is white or
    black. Each child's lists, folded into their best values under a white
    and under a black parent, are merged into v's by one knapsack loop.
    Quadratic overall, capped at n=5000. `m` is the black vertex count,
    n//2 when omitted; one that is not an int in 0..n raises BadSize, a g
    that is not a Graph GraphFormatError.
    """
    check_graph(g)
    if not g.is_tree():
        raise NotATree("the dynamic program needs a tree")
    n = g.n
    if n > _DP_LIMIT:
        raise TreecutError("tree DP capped at n=%d" % _DP_LIMIT)
    if m is None:
        m = n // 2
    check_int(BadSize, "m", m, 0, n)
    inf = float("inf")
    parent = [0, -1] + [0] * (n - 1)  # the root, vertex 1, has none
    order = [1]
    for v in order:  # breadth-first: the list grows while it is walked
        for w in g.adj[v]:
            if not parent[w]:
                parent[w] = v
                order.append(w)
    white, black = [None] * (n + 1), [None] * (n + 1)
    for v in reversed(order):
        wv, bv = [0, inf], [inf, 0]  # v alone: k = 0 white, k = 1 black
        for c in g.adj[v]:
            if parent[c] != v:
                continue
            # the child's best value under a white and under a black parent
            cw = [min(w, b + 1) for w, b in zip(white[c], black[c])]
            cb = [min(w + 1, b) for w, b in zip(white[c], black[c])]
            white[c] = black[c] = None
            nw = [inf] * (len(wv) + len(cw) - 1)
            nb = nw[:]
            if len(wv) > len(cw):  # the longer pair in the inner loop
                wv, bv, cw, cb = cw, cb, wv, bv
            for i, (a, b) in enumerate(zip(wv, bv)):
                for k, x, y in zip(range(i, i + len(cw)), cw, cb):
                    if a + x < nw[k]:
                        nw[k] = a + x
                    if b + y < nb[k]:
                        nb[k] = b + y
            wv, bv = nw, nb
        white[v], black[v] = wv, bv
    return int(min(white[1][m], black[1][m]))
