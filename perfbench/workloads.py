"""The four benchmark workloads and the checks applied to every op.

Every instance has a fixed shape: the random families draw it from
SHAPE_SEED. The run's seed shuffles the vertex ids of that shape, in the
graph and in the decomposition alike, and keeps the order of every list.
All seeds therefore give isomorphic inputs that the library handles step for
step the same way. Cut widths and layer counts agree across seeds, so the
width metrics can carry a tight bound. Vertex ids, returned vertex sets and
input texts still differ from seed to seed, so nothing can be cached across
seeds.

The checks use only this file's own copy of the input. They do not call the
library's graph, cut-width or validation code.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from treecut import engine, fileio, generators, graph, treedec

SHAPE_SEED = 0


@dataclass
class Instance:
    name: str
    n: int
    edges: list  # relabeled edges; the checks count cut widths on these
    t: int       # largest cluster size
    delta: int   # largest degree
    g: object = None
    td: object = None
    graph_text: str = ""
    td_text: str = ""


@dataclass
class Op:
    """One timed call. `run` returns (B, W or None, report, validity or None)."""

    label: str
    inst: Instance
    m: int
    run: Callable


def _relabel(family, rng, **params):
    """Build a family instance, then shuffle its vertex ids with `rng`.

    Returns the instance record plus the decomposition's nodes, tree edges
    and relabeled clusters, each in the generator's order.
    """
    g, td = generators.make_instance(family, **params)
    n = g.n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    perm.insert(0, 0)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    nodes = list(td.nodes)
    clusters = {i: [perm[x] for x in td.clusters[i]] for i in nodes}
    td_edges = list(td.edges())
    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    inst = Instance(family, n, edges, max(len(c) for c in clusters.values()),
                    max(degree))
    return inst, nodes, td_edges, clusters


def _in_memory(family, rng, **params):
    inst, nodes, td_edges, clusters = _relabel(family, rng, **params)
    inst.g = graph.Graph(inst.n, inst.edges)
    inst.td = treedec.TreeDecomposition(nodes, td_edges, clusters, inst.n)
    return inst


def _bisect_op(inst):
    def run():
        (b, w), report = engine.minimum_bisection(inst.g, inst.td)
        return b, w, report, None
    return Op("%s m=%d" % (inst.name, inst.n // 2), inst, inst.n // 2, run)


def _cut_op(inst, m):
    def run():
        b, report = engine.exact_size_cut_linear(inst.g, inst.td, m)
        return b, None, report, None
    return Op("%s m=%d" % (inst.name, m), inst, m, run)


def tree_bisect(rng):
    shapes = [
        ("random-tree", {"n": 30000, "seed": SHAPE_SEED}),
        ("ternary", {"h": 9}),
        ("caterpillar", {"spine": 10000, "hairs": 2}),
    ]
    return [_bisect_op(_in_memory(family, rng, **params))
            for family, params in shapes]


def grid_wide(rng):
    return [_bisect_op(_in_memory("grid", rng, k=100))]


def td_sweep(rng):
    inst = _in_memory("random-td", rng, n=30000, width=3, seed=SHAPE_SEED,
                      edge_prob=0.5)
    return [_cut_op(inst, inst.n * k // 16) for k in range(1, 16)]


def ingest(rng):
    inst, nodes, td_edges, clusters = _relabel(
        "random-td", rng, n=20000, width=3, seed=SHAPE_SEED, edge_prob=0.5)
    lines = ["%d %d" % (inst.n, len(inst.edges))]
    lines.extend("%d %d" % e for e in inst.edges)
    inst.graph_text = "\n".join(lines) + "\n"
    inst.td_text = json.dumps({
        "graph_n": inst.n,
        "nodes": [{"id": i, "cluster": clusters[i]} for i in nodes],
        "edges": [list(e) for e in td_edges],
    })

    def run():
        g = fileio.parse_graph(inst.graph_text)
        td = treedec.TreeDecomposition.from_json(inst.td_text)
        validity = treedec.validate(g, td)
        (b, w), report = engine.minimum_bisection(g, td)
        return b, w, report, validity
    return [Op("%s m=%d" % (inst.name, inst.n // 2), inst, inst.n // 2, run)]


WORKLOADS = {
    "tree-bisect": tree_bisect,
    "grid-wide": grid_wide,
    "td-sweep": td_sweep,
    "ingest": ingest,
}


def build(workload, seed):
    """One round of ops: each op of the workload once, in a fixed order."""
    return WORKLOADS[workload](random.Random(seed))


def check(op, b, w, report, validity):
    """Judge one op's output. Returns (width, digest of B, problems)."""
    inst, m, n = op.inst, op.m, op.inst.n
    problems = []
    side = bytearray(n + 1)
    for v in b:
        if type(v) is not int or not 1 <= v <= n:
            problems.append("B holds %r, outside 1..%d" % (v, n))
            break
        side[v] = 1
    distinct = sum(side)
    if len(b) != m or distinct != m:
        problems.append("B has %d entries, %d distinct, wanted %d"
                        % (len(b), distinct, m))
    if w is not None and (len(w) != n - m or set(w) != {
            v for v in range(1, n + 1) if not side[v]}):
        problems.append("W is not the complement of B")
    width = sum(1 for u, v in inst.edges if side[u] != side[v])
    if width != report.width:
        problems.append("width %d, report says %r" % (width, report.width))
    if not width <= report.bound:
        problems.append("width %d above the bound %r" % (width, report.bound))
    if report.t != inst.t or report.delta != inst.delta:
        problems.append("report has t=%r delta=%r, expected t=%d delta=%d"
                        % (report.t, report.delta, inst.t, inst.delta))
    if validity is not None and not validity.ok:
        problems.append("validate rejected a valid decomposition: %s"
                        % validity.witness)
    text = ",".join(map(str, sorted(b)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return width, digest, problems
