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

    States are (black count in subtree, color of the subtree root); merging
    works like a knapsack over children. Quadratic overall, capped at
    n=5000. `m` is the black vertex count, n//2 when omitted; one that is
    not an int in 0..n raises BadSize, a g that is not a Graph
    GraphFormatError.
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
    root = 1
    parent = [0] * (n + 1)
    order = [root]
    parent[root] = -1
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in g.adj[v]:
            if parent[w] == 0 and w != root:
                parent[w] = v
                order.append(w)
    tables = {}
    sizes = {}
    for v in reversed(order):
        dp = [[0, inf], [inf, 0]]  # dp[k][color], leaf: k matches color
        size = 1
        for c in g.adj[v]:
            if parent[c] != v:
                continue
            dc = tables.pop(c)
            sc = sizes[c]
            merged = [[inf, inf] for _ in range(size + sc + 1)]
            for k1 in range(size + 1):
                row1 = dp[k1]
                for k2 in range(sc + 1):
                    row2 = dc[k2]
                    cell = merged[k1 + k2]
                    for cv in (0, 1):
                        a = row1[cv]
                        if a == inf:
                            continue
                        for cc in (0, 1):
                            b = row2[cc]
                            if b == inf:
                                continue
                            cost = a + b + (cv != cc)
                            if cost < cell[cv]:
                                cell[cv] = cost
            dp = merged
            size += sc
        tables[v] = dp
        sizes[v] = size
    final = tables[root][m]
    return int(min(final))
