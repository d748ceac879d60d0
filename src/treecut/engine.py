"""Exact-size cuts and minimum bisections with provable width bounds.

One step either finishes directly (when a label and its m-shift both sit in
path clusters, a single label interval is the whole cut) or produces a
partial cut plus a remainder set Z at most half the current size whose
restricted decomposition has at least twice the relative path weight.
Iterating doubles the path weight share until the direct case fires.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

# the unchecked hanging-tree cut, under the name perfbench traces
from .approxcut import _cut_tree as approximate_cut
from .errors import (
    BadFraction,
    BadSize,
    InternalInvariant,
    InvalidDecomposition,
)
from .graph import check_graph, cut_width, max_degree
from .labeling import build_plabeling
# the record-returning normalizer, under the name perfbench traces
from .treedec import check_decomposition, normalize as make_nonredundant
from .util import UNCOUNTED, OpsCounter, check_int, holds, no_gc


def _check_bound_args(t, delta, r):
    """r's exact ratio (p, q) of ints, r = p / q. Raises BadSize unless t
    and delta are non-negative ints, a bool excluded, and BadFraction
    unless r is a real number in (0, 1]."""
    check_int(BadSize, "t", t, 0)
    check_int(BadSize, "delta", delta, 0)
    if not holds(lambda: 0 < r <= 1):
        raise BadFraction("path weight %r is not in (0, 1]" % (r,))
    return r.as_integer_ratio()


def bound_value(t, delta, r):
    """Guaranteed cut width: t*delta/2 * (log2(1/r)^2 + 9 log2(1/r) + 8).

    log2(1/r) is taken from r's exact ratio, so an r below float range
    still gives a finite bound; inf is returned only where the bound
    itself exceeds float range. A t or delta that is not a non-negative
    int raises BadSize, and an r that is not a real number in (0, 1]
    BadFraction."""
    p, q = _check_bound_args(t, delta, r)
    try:
        lg = math.log2(q / p)
    except OverflowError:  # 1/r beyond float range
        lg = math.log2(q) - math.log2(p)
    try:
        return t * delta * 0.5 * (lg * lg + 9.0 * lg + 8.0)
    except OverflowError:
        return math.inf


def legible_bound(t, delta, r):
    """Weaker closed form 8 t delta / r, from r's exact ratio; inf where it
    exceeds float range. The arguments are checked as in bound_value."""
    p, q = _check_bound_args(t, delta, r)
    try:
        return 8 * t * delta * q / p
    except OverflowError:
        return math.inf


@dataclass
class StepRecord:
    """One doubling step as the cut's report keeps it: its case, the
    vertices it added to B, the remainder's size (0 after a direct step)
    and the path weight share before and after it (None when direct)."""
    kind: str                 # "direct", "back" or "forward"
    b_added: int
    z_size: int
    w_before: Fraction
    w_after: Fraction | None


def doubling_step(pl, m, b, ops=UNCOUNTED):
    """One step of the cut construction on the current labeling state.

    The step is direct when some path-cluster label has its m-shift in a
    path cluster: the m labels after it are the whole cut. Otherwise it
    splits at the first path node, in path order, whose hanging span holds
    enough labels with a path-cluster vertex m labels back or, failing that,
    m labels forward; back is tried before forward at each node.

    Appends the vertices it cuts to `b`, the cut list that
    exact_size_cut_linear builds, and returns the step's StepRecord.
    Unless the step was direct, the labeling then shrinks in place to the
    instance induced by the remainder set Z (labels reassigned in
    ascending old-label order, path list pruned, the anchor's hanging
    trees dropped) by slicing its label arrays, index 0 included, and its
    path nodes and block ends by block, the blocks of Z's first and last
    labels found by bisecting the ends; `pl.clusters`, `pl.order` and
    `pl.parents` are left untouched. After it, `pl.vertex_of[1:]` lists
    Z. A Z whose labels wrap around inside one block raises
    InternalInvariant, though the step
    rules it out: Z holds no more labels than the split node's hanging
    span, and its first and last labels, za and zb, are path-cluster
    labels, which no hanging span holds. With both in one block and the
    labels outside Z between them, Z would hold the split node's whole
    block, or the whole span and that block's first path-cluster label.
    """
    n = pl.n
    check_int(BadSize, "m", m, 1, n)
    av, core, nodes, ends = pl.vertex_of, pl.flags, pl.path_nodes, pl.ends
    rtot = core.count(1)
    w_before = Fraction(rtot, n)
    ops.add(n)
    # position p of `flags` holds the flag of label p + 1, and of `ahead`
    # the flag m labels later, read circularly
    flags = core[1:]
    ahead = flags[m:] + flags[:m]
    # direct case: some path-cluster vertex has its m-shift in a path cluster
    both = (int.from_bytes(flags, "little")
            & int.from_bytes(ahead, "little"))
    if both:
        lab = ((both & -both).bit_length() - 1) // 8 + 1
        ops.add(n + m)
        b += _circular(av, n, lab + 1, m)
        return StepRecord("direct", m, 0, w_before, None)
    # otherwise the path clusters cover at most half the vertices
    if 2 * rtot > n:
        raise InternalInvariant("direct case missed a crowded instance")
    ops.add(4 * n)  # the failed direct scan, then the case scan
    blocks = pl.blocks()
    behind = flags[n - m:] + flags[:n - m]  # the flag m labels earlier
    # node i's non-path labels are exactly a_i..rst_i-1, because a block
    # lists its hanging vertices first; the hits shifted by d bound Z
    cases = (("back", -m, behind), ("forward", m, ahead))
    for i, (kind, d, shifted) in itertools.product(nodes, cases):
        a_i, rst_i, _ = blocks[i]
        s_size = rst_i - a_i
        hits = shifted.count(1, a_i - 1, rst_i - 1)
        if hits:
            first = shifted.find(1, a_i - 1, rst_i - 1) + 1
            last = shifted.rfind(1, a_i - 1, rst_i - 1) + 1
            za, zb = (first - 1 + d) % n + 1, (last - 1 + d) % n + 1
            z_len = (zb - za) % n + 1
            if (s_size + z_len - hits) * rtot <= (n - rtot) * hits:
                break
    else:
        raise InternalInvariant("no node admits an economical remainder")
    # the blocks of the anchor, which holds za, and of the far node, zb's
    ja, jb = bisect_left(ends, za), bisect_left(ends, zb)
    if kind == "back":
        # the partial cut runs from just after the far block to the end of
        # the block preceding the split node; empty when that is the far one
        start, stop = ends[jb] + 1, a_i
    else:
        # mirrored: from the split node's first cluster vertex up to just
        # before the anchor's first cluster vertex; empty when i is the anchor
        start, stop = rst_i, blocks[nodes[ja]][1]
    b1 = _circular(av, n, start, (stop - start) % n)
    ops.add(len(b1) + len(nodes))
    mt = m - len(b1)
    if not 1 <= mt <= s_size:
        raise InternalInvariant("remainder %d outside the hanging span" % mt)
    c = Fraction(n - 2 * rtot, n - rtot)
    if c == 0:
        b2 = []
    else:
        parent, local = pl.hanging_tree(i, a_i, rst_i, ops)
        res = approximate_cut(parent, local, s_size, mt, c, ops=ops)
        b2 = [av[k + a_i - 1] for k in res.b_vertices]
    cut = b1 + b2
    if not len(cut) <= m <= len(cut) + z_len:
        raise InternalInvariant("remainder cannot absorb the deficit")
    if 2 * z_len > n:
        raise InternalInvariant("remainder larger than half the instance")
    w_after = Fraction(hits, z_len)
    if w_after < 2 * w_before:
        raise InternalInvariant("path weight share failed to double")
    # Z in ascending old-label order: the blocks from za's to zb's or, when
    # its labels wrap around, those up to zb's, then those from za's,
    # relabelled to follow; zb's block ends at zb. The first slice starts
    # at the unused label 0, which holds 0 in both arrays. The anchor's
    # hanging trees go with the blocks outside Z
    if za <= zb:
        head, tail = 1, zb + 1
        kept, gone = nodes[ja:jb + 1], nodes[:ja + 1] + nodes[jb + 1:]
        zends = array("l", [e - za + 1 for e in ends[ja:jb]] + [z_len])
    elif ja == jb:  # ruled out by the step itself: see the docstring
        raise InternalInvariant("remainder wraps inside one block")
    else:
        head, tail = zb + 1, n + 1
        kept, gone = nodes[:jb + 1] + nodes[ja:], nodes[jb + 1:ja + 1]
        zends = ends[:jb] + array("l", [zb, *(e - za + 1 + zb
                                              for e in ends[ja:])])
    for p in gone:
        pl.hang.pop(p, None)
    pl.path_nodes = kept
    pl.ends = zends
    pl.vertex_of = av[:head] + av[za:tail]
    pl.flags = core[:head] + core[za:tail]
    pl.n = z_len
    ops.add(z_len + len(kept))
    b += cut
    return StepRecord(kind, len(cut), z_len, w_before, w_after)


def _circular(vertex_of, n, start, count):
    """The vertices of the `count` labels from `start` on, read circularly
    over labels 1..n; `start` may be n + 1, which is label 1."""
    if start > n:
        start -= n
    end = start + count
    if end <= n + 1:
        return vertex_of[start:end]
    return vertex_of[start:n + 1] + vertex_of[1:end - n]


@dataclass
class CutReport:
    n: int
    m: int
    t: int
    delta: int
    r: Fraction
    width: int
    bound: float
    legible_bound: float
    steps: list
    ops: int
    seconds: float
    b_vertices: list

    def to_json(self):
        return json.dumps({
            "n": self.n, "m": self.m, "t": self.t, "delta": self.delta,
            "r": _ratio(self.r),
            "width": self.width,
            "bound": self.bound,
            "legible_bound": self.legible_bound,
            "ops": self.ops,
            "seconds": self.seconds,
            "b_vertices": self.b_vertices,
            "steps": [{"case": s.kind, "b_added": s.b_added,
                       "z_size": s.z_size,
                       "w_star": _ratio(s.w_before),
                       "w_after": _ratio(s.w_after)}
                      for s in self.steps],
        }, indent=2)


def _ratio(x):
    """A Fraction as "p/q" for the JSON report; None stays None."""
    return None if x is None else "%d/%d" % (x.numerator, x.denominator)


def _check_coverage(pl, n):
    """Raise InvalidDecomposition unless the labeling `pl` labels as many
    vertices as the graph's 1..n; the drivers have already checked that
    no cluster vertex lies above n."""
    if pl.n != n:
        raise InvalidDecomposition(
            "clusters cover %d of %d vertices" % (pl.n, n))


def _finish(g, t, m, b_total, steps, r0, ops, t_start):
    """The CutReport of the cut `b_total`, once it is checked to hold m
    distinct vertices of 1..n, the steps to fit log2(1/r0) + 1 and the
    width to fit the bound; raises InternalInvariant otherwise. The width
    is that of B's own side array, which cut_width sums over its smaller
    side."""
    if len(b_total) != m:
        raise InternalInvariant("cut has %d vertices, wanted %d"
                                % (len(b_total), m))
    # the step count never exceeds log2(1/r0) + 1, checked exactly
    if len(steps) > 1 and Fraction(2) ** (len(steps) - 1) > 1 / r0:
        raise InternalInvariant("step budget exceeded")
    n = g.n
    side = bytearray(n + 1)  # 1 marks a vertex of the cut side B
    for v in b_total:
        if not 0 < v <= n:
            raise InternalInvariant("cut vertex %r outside 1..%d" % (v, n))
        if side[v]:
            raise InternalInvariant("duplicate vertices in the cut")
        side[v] = 1
    width = cut_width(g, side)
    delta = max_degree(g)
    bound = bound_value(t, delta, r0)
    if width > bound:
        raise InternalInvariant("cut width %d exceeds the bound %.2f"
                                % (width, bound))
    return CutReport(g.n, m, t, delta, r0, width, bound,
                     legible_bound(t, delta, r0), steps, ops.total,
                     time.perf_counter() - t_start,
                     list(itertools.compress(range(n + 1), side)))


@no_gc
def exact_size_cut_linear(g, td0, m):
    """Cut with exactly m vertices on one side, one labeling build.

    The labeling is constructed once and shrunk in place after every step,
    so total work stays proportional to the decomposition size. Returns the
    sorted cut side and a CutReport. A `g` that is not a Graph raises
    GraphFormatError, a `td0` that is not a TreeDecomposition
    DecompositionFormatError, and an m that is not an int in 0..n, a bool
    included, BadSize. A `td0` whose clusters are all empty, the empty
    graph's included, raises EmptyDecomposition, also at m = 0: the path
    weight r is undefined at n = 0. `td0` is not written to.
    """
    check_graph(g)
    check_decomposition(td0)
    check_int(BadSize, "m", m, 0, g.n)
    if td0._form.top > g.n:  # before normalize sizes arrays by it
        raise InvalidDecomposition("vertex %d lies outside the graph's 1..%d"
                                   % (td0._form.top, g.n))
    ops = OpsCounter()
    t_start = time.perf_counter()
    norm = make_nonredundant(td0, ops=ops)
    # t is the normalized decomposition's largest cluster size
    t = max(map(len, norm.form.clusters))
    pl = build_plabeling(norm, ops=ops)
    del norm  # no later phase reads the record
    _check_coverage(pl, g.n)
    b_total = []
    steps = []
    while len(b_total) < m:
        steps.append(doubling_step(pl, m - len(b_total), b_total, ops=ops))
        if steps[-1].kind == "direct":
            break
    # the first step counts the path vertices of the whole instance
    r0 = steps[0].w_before if steps else pl.relative_weight()
    del pl  # nothing after the steps reads the labeling
    report = _finish(g, t, m, b_total, steps, r0, ops, t_start)
    return report.b_vertices, report


def minimum_bisection(g, td):
    """Partition into floor(n/2) and ceil(n/2) vertices of bounded width.

    Raises like exact_size_cut_linear on a `g` or `td` of the wrong type,
    and EmptyDecomposition on the empty graph, where r is undefined.
    """
    check_graph(g)  # g.n is read before the cut checks g and td
    b, report = exact_size_cut_linear(g, td, g.n // 2)
    other = bytearray(b"\0" + b"\1" * g.n)  # 1 marks a vertex of W
    for v in b:
        other[v] = 0
    return (b, list(itertools.compress(range(g.n + 1), other))), report
