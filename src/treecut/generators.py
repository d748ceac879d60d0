"""Instance families: graphs together with matching tree decompositions."""
from __future__ import annotations

import heapq
import random
from itertools import combinations

from .errors import BadFraction, BadSize, TreecutError
from .graph import Graph
from .treedec import TreeDecomposition, tree_to_width1_td
from .util import check_int, holds, no_gc


def path_graph(n):
    """Path on vertices 1..n in order; an n that is not an int >= 1 raises
    BadSize."""
    check_int(BadSize, "n", n, 1)
    return Graph(n, [(v, v + 1) for v in range(1, n)])


def star_graph(leaves):
    """Center vertex 1 joined to `leaves` leaves; a leaf count that is not
    an int >= 0 raises BadSize."""
    check_int(BadSize, "leaves", leaves, 0)
    return Graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def _check_legs(legs):
    """Raise BadSize unless `legs` is a list or tuple of ints >= 0."""
    if type(legs) not in (list, tuple):
        raise BadSize("legs %r is not a list of ints" % (legs,))
    for length in legs:
        check_int(BadSize, "leg length", length, 0)


def spider_graph(leg_lengths):
    """Center vertex 1 with one path of each given length attached.

    `leg_lengths` that is not a list or tuple of ints >= 0 raises
    BadSize."""
    _check_legs(leg_lengths)
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
    """Path of `spine` vertices, each with `hairs` pendant leaves.

    A `spine` that is not an int >= 1, or `hairs` that is not an int >= 0,
    raises BadSize."""
    check_int(BadSize, "spine", spine, 1)
    check_int(BadSize, "hairs", hairs, 0)
    edges = [(v, v + 1) for v in range(1, spine)]
    nxt = spine + 1
    for v in range(1, spine + 1):
        for _ in range(hairs):
            edges.append((v, nxt))
            nxt += 1
    return Graph(nxt - 1, edges)


def ternary_tree(height):
    """Complete rooted ternary tree of the given height (0 = single vertex);
    a height that is not an int >= 0 raises BadSize."""
    check_int(BadSize, "height", height, 0)
    n = (3 ** (height + 1) - 1) // 2
    edges = [(v, (v - 2) // 3 + 1) for v in range(2, n + 1)]
    return Graph(n, edges)


# the types every supported Python seeds from without a warning
_SEED_TYPES = (int, float, str, bytes, bytearray)


def _rng(seed):
    """random.Random(seed); a seed that is not None or of a type in
    _SEED_TYPES, a bool included, raises BadSize."""
    if seed is not None and type(seed) not in _SEED_TYPES:
        raise BadSize("seed %r is not an int, float, str or bytes" % (seed,))
    return random.Random(seed)


def random_tree(n, seed=0):
    """Uniform labeled tree decoded from a random sequence.

    An n that is not an int >= 1, and a `seed` that is not None, an int, a
    float, a str, bytes or a bytearray, raise BadSize."""
    check_int(BadSize, "n", n, 1)
    rng = _rng(seed)
    if n == 1:
        return Graph(1, [])
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
    """k-by-k grid; vertex (row, col) is (row-1)*k + col. A side k that is
    not an int >= 1 raises BadSize."""
    check_int(BadSize, "k", k, 1)
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
    sliding windows of k+1 consecutive row-major vertices. A side k that
    is not an int >= 1 raises BadSize."""
    check_int(BadSize, "k", k, 1)
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
    keeps a random subgraph of the cluster cliques, each edge with
    probability `edge_prob`. An n that is not an int >= 1, a width that is
    not an int >= 0 and a seed as random_tree refuses raise BadSize; an
    `edge_prob` that is not a number in [0, 1] raises BadFraction.
    """
    check_int(BadSize, "n", n, 1)
    check_int(BadSize, "width", width, 0)
    rng = _rng(seed)
    if not holds(lambda: 0 <= edge_prob <= 1):
        raise BadFraction("edge_prob %r is not a number in [0, 1]"
                          % (edge_prob,))
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
    edge_pool = {(u, v) if u < v else (v, u) for cl in clusters.values()
                 for u, v in combinations(cl, 2)}
    edges = [e for e in sorted(edge_pool) if rng.random() < edge_prob]
    return Graph(n, edges), td


_SIZE_KEY = {"path": "n", "star": "n", "random-tree": "n", "random-td": "n",
             "ternary": "h", "grid": "k"}
_SIZES = {"n": 1, "h": 0, "k": 1, "spine": 1, "hairs": 0, "width": 0}


@no_gc
def make_instance(family, **kw):
    """Build (graph, decomposition) for a named family.

    Families: path, star, spider, caterpillar, ternary, random-tree, grid,
    random-td. Trees get their width-1 longest-path-aligned decomposition.
    A family that is not one of these, or that needs a size (`n`, `h` or
    `k`) it is not given, raises TreecutError. A given size that is not
    an int at or above its minimum (1 for `n`, `k` and `spine`, 0 for `h`,
    `hairs`, `width` and each leg), a bool or None included, and a `legs`
    that is not a list or tuple raise BadSize, whether the family reads
    them or not. The family functions check the rest: a `seed` raises
    BadSize and an `edge_prob` BadFraction where the family reads it. A
    size whose instance does not fit in memory raises BadSize too.
    """
    size = _SIZE_KEY.get(family) if type(family) is str else None
    if size is not None and kw.get(size) is None:
        raise TreecutError("family %r needs --%s" % (family, size))
    _check_legs(kw.get("legs", ()))
    for key, lo in _SIZES.items():
        if key in kw:
            check_int(BadSize, key, kw[key], lo)
    try:
        if family == "path":
            g = path_graph(kw["n"])
        elif family == "star":
            g = star_graph(kw["n"] - 1)
        elif family == "spider":
            g = spider_graph(kw.get("legs", [3, 3, 3]))
        elif family == "caterpillar":
            g = caterpillar_graph(kw.get("spine", 5), kw.get("hairs", 2))
        elif family == "ternary":
            g = ternary_tree(kw["h"])
        elif family == "random-tree":
            g = random_tree(kw["n"], kw.get("seed", 0))
        elif family == "grid":
            return grid_graph(kw["k"]), grid_td(kw["k"])
        elif family == "random-td":
            return random_graph_with_td(kw["n"], kw.get("width", 3),
                                        kw.get("seed", 0),
                                        kw.get("edge_prob", 0.5))
        else:
            raise TreecutError("unknown family %r" % (family,))
        return g, tree_to_width1_td(g)
    except MemoryError:
        raise BadSize("no memory for family %r" % (family,)) from None
