"""Instance families: graphs together with matching tree decompositions."""
from __future__ import annotations

import heapq
import random

from .errors import BadFraction, BadSize, TreecutError
from .graph import Graph
from .treedec import TreeDecomposition, tree_to_width1_td
from .util import no_gc


def path_graph(n):
    if n < 1:
        raise BadSize("need at least one vertex")
    return Graph(n, [(v, v + 1) for v in range(1, n)])


def star_graph(leaves):
    if leaves < 0:
        raise BadSize("negative leaf count")
    return Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def spider_graph(leg_lengths):
    """Center vertex 1 with one path of each given length attached."""
    if any(length < 0 for length in leg_lengths):
        raise BadSize("negative leg length")
    edges = []
    nxt = 2
    for length in leg_lengths:
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt - 1, edges)


def caterpillar_graph(spine, hairs):
    """Path of `spine` vertices, each with `hairs` pendant leaves."""
    if spine < 1:
        raise BadSize("need a spine vertex")
    if hairs < 0:
        raise BadSize("negative hair count")
    edges = [(v, v + 1) for v in range(1, spine)]
    nxt = spine + 1
    for v in range(1, spine + 1):
        for _ in range(hairs):
            edges.append((v, nxt))
            nxt += 1
    return Graph(nxt - 1, edges)


def ternary_tree(height):
    """Complete rooted ternary tree of the given height (0 = single vertex)."""
    if height < 0:
        raise BadSize("negative height")
    n = (3 ** (height + 1) - 1) // 2
    edges = [(v, (v - 2) // 3 + 1) for v in range(2, n + 1)]
    return Graph(n, edges)


def random_tree(n, seed=0):
    """Uniform labeled tree decoded from a random sequence."""
    if n < 1:
        raise BadSize("need at least one vertex")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(1, 2)])
    rng = random.Random(seed)
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    count = [0] * (n + 1)
    for v in seq:
        count[v] += 1
    edges = []
    leaf_heap = [v for v in range(1, n + 1) if count[v] == 0]
    heapq.heapify(leaf_heap)
    for v in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, v))
        count[v] -= 1
        if count[v] == 0:
            heapq.heappush(leaf_heap, v)
    a = heapq.heappop(leaf_heap)
    b = heapq.heappop(leaf_heap)
    edges.append((a, b))
    return Graph(n, edges)


def grid_graph(k):
    """k-by-k grid; vertex (row, col) is (row-1)*k + col."""
    if k < 1:
        raise BadSize("grid side must be positive")
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c + 1
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return Graph(k * k, edges)


def grid_td(k):
    """Path-shaped decomposition of the k-by-k grid with width k:
    sliding windows of k+1 consecutive row-major vertices."""
    n = k * k
    if k == 1:
        return TreeDecomposition._trusted([1], [], {1: [1]}, 1)
    count = n - k
    clusters = {i: list(range(i, i + k + 1)) for i in range(1, count + 1)}
    edges = [(i, i + 1) for i in range(1, count)]
    return TreeDecomposition._trusted(list(range(1, count + 1)), edges,
                                      clusters, n)


def random_graph_with_td(n, width, seed=0, edge_prob=0.5):
    """Random graph with a valid decomposition of at most the given width.

    Builds a random decomposition tree first (each cluster inherits a subset
    of its parent and introduces fresh vertices until 1..n is covered), then
    keeps a random subgraph of the cluster cliques.
    """
    if n < 1 or width < 0:
        raise BadSize("bad instance parameters")
    rng = random.Random(seed)
    cap = width + 1
    clusters = {1: list(range(1, min(cap, n) + 1))}
    td_edges = []
    nxt = len(clusters[1]) + 1
    node = 1
    while nxt <= n:
        node += 1
        parent = rng.randrange(1, node)
        inherit = rng.sample(clusters[parent],
                             rng.randint(0, min(cap - 1, len(clusters[parent]))))
        fresh = rng.randint(1, cap - len(inherit))
        fresh = min(fresh, n - nxt + 1)
        cluster = inherit + list(range(nxt, nxt + fresh))
        nxt += fresh
        clusters[node] = cluster
        td_edges.append((parent, node))
    td = TreeDecomposition._trusted(list(range(1, node + 1)), td_edges,
                                    clusters, n)
    edge_pool = set()
    for i in td.nodes:
        cl = clusters[i]
        for a in range(len(cl)):
            for b in range(a + 1, len(cl)):
                u, v = cl[a], cl[b]
                edge_pool.add((u, v) if u < v else (v, u))
    edges = [e for e in sorted(edge_pool) if rng.random() < edge_prob]
    return Graph(n, edges), td


_SIZE_KEY = {"path": "n", "star": "n", "random-tree": "n", "random-td": "n",
             "ternary": "h", "grid": "k"}
_SIZES = ("n", "h", "k", "spine", "hairs", "width")
_SEED_TYPES = (int, float, str, bytes, bytearray)


@no_gc
def make_instance(family, **kw):
    """Build (graph, decomposition) for a named family.

    Families: path, star, spider, caterpillar, ternary, random-tree, grid,
    random-td. Trees get their width-1 longest-path-aligned decomposition.
    A family that needs a size (`n`, `h` or `k`) raises TreecutError
    without it. A given size (`n`, `h`, `k`, `spine`, `hairs`, `width` or
    a leg) that is not an int, a bool or None included, a `legs` that is
    not a list or tuple, and a `seed` that is not None, an int, a float, a
    str, bytes or a bytearray raise BadSize; an `edge_prob` that is not a
    number in [0, 1] raises BadFraction.
    """
    size = _SIZE_KEY.get(family) if type(family) is str else None
    if size is not None and kw.get(size) is None:
        raise TreecutError("family %r needs --%s" % (family, size))
    legs = kw.get("legs", ())
    if type(legs) not in (list, tuple):
        raise BadSize("legs %r is not a list of ints" % (legs,))
    for val in [kw[key] for key in _SIZES if key in kw] + list(legs):
        if type(val) is not int:
            raise BadSize("size %r is not an int" % (val,))
    edge_prob = kw.get("edge_prob", 0.5)
    try:
        ok = 0 <= edge_prob <= 1
    except TypeError:  # a string, None, a dict...
        ok = False
    if not ok:
        raise BadFraction("edge_prob %r is not a number in [0, 1]"
                          % (edge_prob,))
    seed = kw.get("seed", 0)
    # the types every supported Python seeds from without a warning
    if seed is not None and type(seed) not in _SEED_TYPES:
        raise BadSize("seed %r is not an int, float, str or bytes" % (seed,))
    if family == "path":
        g = path_graph(kw["n"])
    elif family == "star":
        g = star_graph(kw["n"] - 1)
    elif family == "spider":
        g = spider_graph(legs or [3, 3, 3])
    elif family == "caterpillar":
        g = caterpillar_graph(kw.get("spine", 5), kw.get("hairs", 2))
    elif family == "ternary":
        g = ternary_tree(kw["h"])
    elif family == "random-tree":
        g = random_tree(kw["n"], seed)
    elif family == "grid":
        return grid_graph(kw["k"]), grid_td(kw["k"])
    elif family == "random-td":
        return random_graph_with_td(kw["n"], kw.get("width", 3), seed,
                                    edge_prob)
    else:
        raise TreecutError("unknown family %r" % (family,))
    return g, tree_to_width1_td(g)
