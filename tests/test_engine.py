import copy
import functools
import itertools
import json
import math
import re
import tracemalloc
import weakref
from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import Phase, find, given, settings, strategies as st

from helpers import (
    VertexLabeling,
    acceptance_corpus,
    by_label,
    exact_size_cut,
    p6_td,
    per_vertex,
    ref_doubling_step,
    run_capped,
    run_checked,
    small_fixtures,
    span_form,
    spider_fixture,
    step_result,
    tricut_width,
    two_pass_plabeling,
)
from treecut import engine, labeling
from treecut.approxcut import approximate_cut
from treecut.cli import main
from treecut.engine import (
    bound_value,
    doubling_step,
    exact_size_cut_linear,
    legible_bound,
    minimum_bisection,
)
from treecut.errors import (
    BadFraction,
    BadSize,
    DecompositionFormatError,
    EmptyDecomposition,
    GraphFormatError,
    InternalInvariant,
    InvalidDecomposition,
    TreecutError,
)
from treecut.fileio import save_td
from treecut.generators import (
    grid_graph,
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
    star_graph,
)
from treecut.graph import Graph, cut_width, max_degree
from treecut.labeling import PLabeling, build_plabeling
from treecut.oracle import brute_force_min_cut_size_m
from treecut.treedec import (
    TreeDecomposition,
    heaviest_path,
    make_nonredundant,
    normalize,
    tree_to_width1_td,
    validate,
)
from treecut.util import OpsCounter


def test_bound_values():
    assert bound_value(2, 2, Fraction(1)) == 16
    assert legible_bound(2, 2, Fraction(1)) == 32
    # halving r adds one doubling of work but bounds stay monotone
    assert bound_value(2, 2, Fraction(1, 2)) > 16
    assert legible_bound(1, 3, Fraction(1, 4)) == 8 * 3 / Fraction(1, 4)


# weights in (0, 1] below float range, whose 1/r is taken from r's exact
# ratio: log2(1/r) is about 1063 for 1e-320 and 1329 for the others
@pytest.mark.parametrize("r", [Fraction(1, 10**400), Decimal("1e-400"),
                               1e-320])
def test_bounds_take_a_weight_below_float_range(r):
    assert bound_value(0, 1, r) == 0 and legible_bound(0, 1, r) == 0
    assert 5e5 < bound_value(1, 1, r) < 1e6
    assert legible_bound(1, 1, r) == math.inf  # 8 / r is beyond float range


def test_bounds_are_inf_only_beyond_float_range():
    assert bound_value(10**400, 1, 1) == math.inf
    assert legible_bound(1, 10**400, 1) == math.inf
    assert bound_value(10**308, 1, 1) == math.inf
    assert bound_value(0, 10**400, 1) == 0
    assert legible_bound(1, 1, Fraction(1, 2**1000)) == 8.0 * 2**1000


@pytest.mark.parametrize("fn", [bound_value, legible_bound])
@pytest.mark.parametrize("r", [0, Fraction(0), -1, 2, Fraction(3, 2), "x",
                               None, 0.5j, float("nan"), Decimal("nan")])
def test_bounds_reject_a_weight_outside_the_unit_interval(fn, r):
    with pytest.raises(BadFraction):
        fn(1, 1, r)


def test_p6_direct():
    g = path_graph(6)
    b, rep = exact_size_cut_linear(g, p6_td(), 3)
    assert len(b) == 3
    assert rep.width <= 2 * 2 * 2
    assert rep.width == cut_width(g, bytes(v in b for v in range(7)))
    assert len(rep.steps) == 1 and rep.steps[0].kind == "direct"


def test_trivial_sizes():
    g = path_graph(5)
    td = tree_to_width1_td(g)
    b0, rep0 = exact_size_cut_linear(g, td, 0)
    assert b0 == [] and rep0.width == 0
    bn, repn = exact_size_cut_linear(g, td, 5)
    assert sorted(bn) == [1, 2, 3, 4, 5] and repn.width == 0


def test_single_vertex():
    g = Graph(1, [])
    td = TreeDecomposition([1], [], {1: [1]}, 1)
    b, rep = exact_size_cut_linear(g, td, 1)
    assert b == [1] and rep.width == 0


# sizes that are not ints; bools too, as TreeDecomposition refuses them
NON_INT_SIZES = [1.5, 2.0, Fraction(3), "3", None, True]


@pytest.mark.parametrize("m", NON_INT_SIZES)
def test_exact_cut_rejects_a_size_that_is_not_an_int(m):
    with pytest.raises(BadSize):
        exact_size_cut_linear(path_graph(6), p6_td(), m)


@pytest.mark.parametrize("m", NON_INT_SIZES)
def test_doubling_step_rejects_a_size_that_is_not_an_int(m):
    with pytest.raises(BadSize):
        doubling_step(two_pass_plabeling(p6_td()), m, [])


# a graph or decomposition of the wrong kind, not a malformed one
WRONG_KINDS = [
    (None, p6_td(), GraphFormatError),
    ("x", p6_td(), GraphFormatError),
    (p6_td(), p6_td(), GraphFormatError),
    (path_graph(6), None, DecompositionFormatError),
    (path_graph(6), [1], DecompositionFormatError),
    # a tree in the (parent, clusters) form the approximate cut reads
    (path_graph(6), ([0, 0], [[1, 2], [2, 3]]), DecompositionFormatError),
]


@pytest.mark.parametrize("g, td, error", WRONG_KINDS)
def test_exact_cut_rejects_arguments_of_the_wrong_kind(g, td, error):
    with pytest.raises(error):
        exact_size_cut_linear(g, td, 3)


@pytest.mark.parametrize("g, td, error", WRONG_KINDS)
def test_bisection_rejects_arguments_of_the_wrong_kind(g, td, error):
    with pytest.raises(error):
        minimum_bisection(g, td)


def _snapshot(td):
    return (list(td.nodes), list(td.neighbors.items()),
            list(td.clusters.items()), td.graph_n,
            [id(getattr(td, f)) for f in TreeDecomposition.__slots__])


@pytest.mark.parametrize("family, params", [
    ("grid", {"k": 6}),  # covering: labeled from normalization's sweep
    ("path", {"n": 30}),
    ("ternary", {"h": 4}),
    ("random-td", {"n": 60, "width": 3, "seed": 0}),  # contracts
])
def test_a_cut_leaves_its_input_as_it_was(family, params):
    g, td = make_instance(family, **params)
    before = copy.deepcopy(_snapshot(td))
    for m in (0, 1, g.n // 3, g.n):
        exact_size_cut_linear(g, td, m)
    minimum_bisection(g, td)
    assert _snapshot(td) == before


def test_tree_decomposition_holds_its_four_fields_and_its_form():
    """The four public fields, and the positional form every phase reads."""
    assert TreeDecomposition.__slots__ == ("nodes", "neighbors", "clusters",
                                           "graph_n", "_form")
    assert not hasattr(p6_td(), "__dict__")


def test_star_matches_oracle():
    g = star_graph(5)
    td = tree_to_width1_td(g)
    b, rep = exact_size_cut_linear(g, td, 2)
    assert len(b) == 2
    assert rep.width >= brute_force_min_cut_size_m(g, 2)[0] == 2


def test_ternary_forces_back_and_forward_steps():
    g, td = make_instance("ternary", h=3)
    _, kinds, _ = run_checked(g, td, 7)
    assert "back" in kinds
    _, kinds, _ = run_checked(g, td, 10)
    assert "forward" in kinds


def test_spider_all_sizes_checked():
    g, td = spider_fixture()
    for m in range(g.n + 1):
        b, _, _ = run_checked(g, td, m)
        assert len(b) == m


def test_bisection_even_and_odd():
    for n in (8, 9):
        g = path_graph(n)
        (b, w), rep = minimum_bisection(g, tree_to_width1_td(g))
        assert len(b) == n // 2
        assert sorted(b) + sorted(w) and len(b) + len(w) == n
        assert rep.width <= rep.bound


def test_drivers_agree_on_sizes():
    for seed in (3, 11, 19):
        g, td = random_graph_with_td(16, 3, seed)
        for m in range(g.n + 1):
            b1, r1 = exact_size_cut(g, td, m)
            b2, r2 = exact_size_cut_linear(g, td, m)
            assert len(b1) == len(b2) == m
            assert r1.width <= r1.bound and r2.width <= r2.bound


def test_grid_one_direct_step():
    g = grid_graph(5)
    b, rep = exact_size_cut_linear(g, grid_td(5), 12)
    assert len(b) == 12
    assert [s.kind for s in rep.steps] == ["direct"]
    assert rep.width <= 2 * (rep.t) * max_degree(g)


def test_tricut_width():
    g = path_graph(6)
    assert tricut_width(g, set(g.vertices), {1, 2}, {3}) == 2
    assert tricut_width(g, set(g.vertices), {1, 2}, set()) == 1
    assert tricut_width(g, {1, 2, 3, 4}, {1, 2}, set()) == 1


def _fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def test_report_json():
    """The JSON report holds every field, and each step record's case,
    sizes and path-weight shares before and after it: the remainder's
    share as "p/q", null on a direct step. The path's bisection takes one
    direct step, the ternary tree's one back step."""
    g = path_graph(10)
    for (g, td), kinds in (((g, tree_to_width1_td(g)), ["direct"]),
                           (make_instance("ternary", h=3), ["back"])):
        _check_report_json(minimum_bisection(g, td)[1], kinds)


def _check_report_json(rep, kinds):
    assert [s.kind for s in rep.steps] == kinds
    d = json.loads(rep.to_json())
    for key in ("n", "m", "t", "delta", "r", "width", "bound",
                "legible_bound", "steps", "ops", "seconds",
                "b_vertices"):
        assert key in d
    assert _fraction(d["r"]) == rep.r
    assert len(d["steps"]) == len(rep.steps)
    for row, s in zip(d["steps"], rep.steps):
        assert set(row) == {"case", "b_added", "z_size", "w_star", "w_after"}
        assert (row["case"], row["b_added"], row["z_size"]) == \
            (s.kind, s.b_added, s.z_size)
        assert _fraction(row["w_star"]) == s.w_before
        if s.w_after is None:
            assert row["w_after"] is None
        else:
            assert _fraction(row["w_after"]) == s.w_after


def test_empty_graph_has_no_cut():
    """The empty graph's one-node decomposition passes validate, but r is
    undefined at n = 0, so every function that needs it refuses it."""
    g, td = Graph(0, []), TreeDecomposition([1], [], {1: []}, 0)
    assert validate(g, td).ok
    for call in (lambda: minimum_bisection(g, td),
                 lambda: exact_size_cut_linear(g, td, 0),
                 lambda: make_nonredundant(td), lambda: heaviest_path(td)):
        with pytest.raises(EmptyDecomposition, match="every cluster is empty"):
            call()


def test_step_budget_and_doubling_on_random_instances():
    for seed in range(6):
        g, td = random_graph_with_td(24, 2, seed + 100)
        run_checked(g, td, g.n // 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 40), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_exact_cut_property(n, width, seed):
    g, td = random_graph_with_td(n, width, seed)
    m = seed % (g.n + 1)
    b, rep = exact_size_cut_linear(g, td, m)
    b = set(b)
    assert len(b) == m
    assert rep.width <= rep.bound + 1e-9
    naive = sum(1 for u, v in g.edges() if (u in b) != (v in b))
    assert naive == rep.width


def test_doubling_step_hands_over_a_local_rooted_tree(monkeypatch):
    """Every hanging tree the doubling step passes to the approximate cut
    lists each node's parent before it, the split node with an empty
    cluster, and its local clusters are lists of distinct ints covering
    1..graph_n."""
    original = engine.approximate_cut
    handed = []

    def checked(parent, clusters, n, m, c, ops):
        assert len(parent) == len(clusters)
        assert all(0 <= parent[k] < k for k in range(1, len(parent)))
        assert [] in clusters
        union = set()
        for cl in clusters:
            assert all(type(x) is int for x in cl)
            assert len(set(cl)) == len(cl)
            union.update(cl)
        assert union == set(range(1, n + 1))
        handed.append(parent)
        return original(parent, clusters, n, m, c, ops=ops)

    monkeypatch.setattr(engine, "approximate_cut", checked)
    for label, g, td in acceptance_corpus():
        exact_size_cut_linear(g, td, g.n // 2)
    assert handed


def test_width_above_bound_is_an_internal_error(monkeypatch):
    g = path_graph(10)
    td = tree_to_width1_td(g)
    monkeypatch.setattr(engine, "bound_value", lambda t, delta, r: 0)
    with pytest.raises(InternalInvariant):
        exact_size_cut_linear(g, td, 5)
    # the trivial sizes cut nothing, so a zero bound still holds
    assert exact_size_cut_linear(g, td, 0)[1].width == 0


@pytest.mark.parametrize("family, kw", [
    ("grid", {"k": 6}),  # a covering labeling
    ("random-tree", {"n": 200, "seed": 3}),
    ("random-td", {"n": 200, "width": 3, "seed": 3}),  # contracts
])
def test_no_labeling_outlives_the_steps(monkeypatch, family, kw):
    """Once _finish runs, the labeling the cut built is freed: nothing
    after the steps reads it."""
    class Watched(PLabeling):
        __slots__ = ("__weakref__",)

    built, alive = [], []
    build, finish = engine.build_plabeling, engine._finish

    def label(norm, ops):
        pl = build(norm, ops=ops)
        built.append(weakref.ref(pl))
        return pl

    def at_finish(*args):
        alive.extend(ref() is not None for ref in built)
        return finish(*args)

    monkeypatch.setattr(labeling, "PLabeling", Watched)
    monkeypatch.setattr(engine, "build_plabeling", label)
    monkeypatch.setattr(engine, "_finish", at_finish)
    g, td = make_instance(family, **kw)
    exact_size_cut_linear(g, td, g.n // 3)
    assert alive == [False]


def _finish_path6(b_total):
    g = path_graph(6)
    return engine._finish(g, tree_to_width1_td(g).width() + 1, len(b_total),
                          b_total, [], Fraction(1), OpsCounter(), 0.0)


def test_finish_accepts_a_valid_cut():
    rep = _finish_path6([3, 1, 2])
    assert rep.width == 1
    assert rep.b_vertices == [1, 2, 3]


@pytest.mark.parametrize("b_total, width", [
    ([5, 1, 2], 3), ([2, 6, 4, 3], 3), ([6, 1, 3, 5, 4], 2),
    ([1, 2, 3, 4, 5], 1)])
def test_finish_hands_cut_width_the_side_of_b(monkeypatch, b_total, width):
    """_finish hands cut_width B's own side array, with byte 0 still 0,
    also for a cut of more than half the vertices (cut_width picks the
    side it sums over: see test_graph.py); the width and the sorted B are
    those of the cut itself."""
    sides = []

    def recording(g, side):
        sides.append(bytes(side))
        return cut_width(g, side)

    monkeypatch.setattr(engine, "cut_width", recording)
    rep = _finish_path6(b_total)
    assert rep.width == width
    assert rep.b_vertices == sorted(b_total)
    assert sides == [bytes(x in b_total for x in range(7))]


@pytest.mark.parametrize("b_total", [[1, 2, 2], [4, 4, 4], [1, 2, 3, 4, 5, 5]])
def test_finish_rejects_duplicate_vertices(b_total):
    with pytest.raises(InternalInvariant, match="duplicate"):
        _finish_path6(b_total)


@pytest.mark.parametrize("b_total", [[0, 1, 2], [1, 2, 7], [7],
                                     [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 7]])
def test_finish_rejects_out_of_range_vertices(b_total):
    # 0 and n + 1 would index the side array without complaint or with an
    # IndexError; both must end as a library error
    with pytest.raises(TreecutError, match="outside 1..6"):
        _finish_path6(b_total)


def _steps_agree(td, m):
    """Run the cut of size m step by step with doubling_step and with the
    reference step on two labelings built alike, the reference's in its
    per-vertex form, asserting after each step the same StepResult (B
    read off the cut list, Z off the shrunk labeling), the same shrunk
    labeling and the same ops. Returns each step's kind,
    whether its labels wrapped past n and whether the flags it left read
    differently backwards, where a reversed slice would show."""
    pl = build_plabeling(normalize(td))
    ref = per_vertex(build_plabeling(normalize(td)))
    seen = []
    while m > 0:
        label_of = per_vertex(pl).label_of
        ops, ops_ref = OpsCounter(), OpsCounter()
        res = step_result(pl, m, ops=ops)
        assert res == ref_doubling_step(ref, m, ops=ops_ref)
        shrunk = by_label(ref)
        assert (pl.n, pl.vertex_of, pl.flags, pl.ends, pl.path_nodes,
                pl.hang) == (shrunk.n, shrunk.vertex_of, shrunk.flags,
                             shrunk.ends, shrunk.path_nodes, shrunk.hang)
        assert pl.ends.typecode == "l"
        view = per_vertex(pl)
        assert all(view.label_of[x] == ref.label_of[x] == lab
                   for lab, x in enumerate(pl.vertex_of))
        assert ops.total == ops_ref.total
        labels = [label_of[x] for x in res.z_vertices or res.b_vertices]
        seen.append((res.kind, labels != sorted(labels)
                     or labels != list(range(labels[0], labels[-1] + 1)),
                     pl.flags[1:] != pl.flags[:0:-1]))
        m -= len(res.b_vertices)
        if res.kind == "direct":
            break
    return seen


def test_doubling_step_matches_the_reference_at_every_size():
    """On the small fixtures and the ternary tree of height 3, every size m
    from 1 to n, m = n included, gives the reference step's results step
    by step; the sweep reaches all three cases and label runs that wrap
    past n in direct and remainder steps."""
    kinds, wrapped = set(), set()
    fixtures = small_fixtures() + [("ternary3", *make_instance("ternary", h=3))]
    for _, g, td in fixtures:
        for m in range(1, g.n + 1):
            for kind, wraps, _ in _steps_agree(td, m):
                kinds.add(kind)
                if wraps:
                    wrapped.add(kind == "direct")
    assert kinds == {"direct", "back", "forward"}
    assert wrapped == {False, True}


def _hand_built(blocks):
    """A labeling in the reference's per-vertex form, built by hand from
    `blocks`, one string of label flags per path node. The path nodes are
    101, 102, ..., the vertex at label lab is n + 1 - lab, and a path
    node's cluster holds its block's flagged vertices. Each unflagged
    vertex x is the one vertex of hanging node x, and a block's hanging
    nodes are paired off into trees of two under its path node, so the
    approximate cut re-roots them at a hanging node. A block need not
    hold its 0s before its 1s, as a labeling build_plabeling makes does."""
    n = sum(map(len, blocks))
    vertex_of = [0, *range(n, 0, -1)]
    label_of = vertex_of[:]  # lab <-> n + 1 - lab is its own inverse
    is_pv, owner = bytearray(n + 1), [0] * (n + 1)
    clusters, pairs_of = {}, {}
    path = list(range(101, 101 + len(blocks)))
    x = n + 1
    for i, flags in zip(path, blocks):
        clusters[i], pairs = [], []
        for f in flags:
            x -= 1
            owner[x] = i
            if f == "1":
                is_pv[x] = 1
                clusters[i].append(x)
            else:
                clusters[x] = [x]
                pairs.append((x, pairs[-1][0] if len(pairs) % 2 else i))
        pairs_of[i] = pairs
    order, parents, hang = span_form(path, pairs_of)
    ids = {i: i for i in clusters}  # the nodes are their own ids
    return VertexLabeling(clusters, ids, n, label_of, vertex_of, is_pv, owner,
                          path, hang, order, parents)


def _hand_built_step_agrees(blocks, m):
    """One doubling_step on a hand-built labeling against the reference
    step on a second build of it: the same result or the same
    InternalInvariant, the same shrunk labeling and the same ops. Returns
    "raise", "direct", or where the remainder's labels lay: "inside"
    1..n, or, when they wrapped past n, "two blocks" or "one block" by
    whether its first label, za, and its last, zb, lay in one block."""
    ref, pl = _hand_built(blocks), by_label(_hand_built(blocks))
    owner = ref.path_node_of[:]
    ops, ops_ref = OpsCounter(), OpsCounter()
    try:
        want = ref_doubling_step(ref, m, ops=ops_ref)
    except InternalInvariant as exc:
        with pytest.raises(InternalInvariant,
                           match="^%s$" % re.escape(str(exc))):
            doubling_step(pl, m, [], ops=ops)
        return "raise"
    assert step_result(pl, m, ops=ops) == want
    shrunk = by_label(ref)
    assert (pl.n, pl.vertex_of, pl.flags, pl.ends, pl.path_nodes,
            pl.hang) == (shrunk.n, shrunk.vertex_of, shrunk.flags,
                         shrunk.ends, shrunk.path_nodes, shrunk.hang)
    assert ops.total == ops_ref.total
    if want.kind == "direct":
        return "direct"
    labels = [ref.n + 1 - x for x in want.z_vertices]  # ascending
    gap = next((k for k in range(1, len(labels))
                if labels[k] != labels[k - 1] + 1), None)
    if gap is None:
        return "inside"
    za, zb = want.z_vertices[gap], want.z_vertices[gap - 1]
    return "one block" if owner[za] == owner[zb] else "two blocks"


@pytest.mark.parametrize("blocks, m, where", [
    (["0001", "1"], 3, "inside"),
    (["001", "1", "001"], 2, "inside"),
    (["1", "0001"], 3, "two blocks"),
    (["1", "001", "001"], 5, "two blocks"),
])
def test_hand_built_remainder_shrinks_as_the_reference(blocks, m, where):
    """A remainder inside 1..n and one that wraps past n across two
    blocks, by a back and by a forward step each, with fewer path-cluster
    labels than half, so the approximate cut runs: the shrunk blocks,
    their ends relabelled, match the reference's."""
    assert _hand_built_step_agrees(blocks, m) == where


def test_blocks_check_their_ends():
    """PLabeling.blocks reads the blocks off the ends and raises
    InternalInvariant when a block holds no flagged label or the last
    block does not end at n."""
    pl = by_label(_hand_built(["01", "011"]))
    assert pl.blocks() == {101: (1, 2, 2), 102: (3, 4, 5)}
    pl.ends = array("l", [2, 4])
    with pytest.raises(InternalInvariant,
                       match="end at label 4, not at n = 5"):
        pl.blocks()
    pl.ends = array("l", [1, 5])
    with pytest.raises(InternalInvariant, match="node 101 holds no cluster"):
        pl.blocks()


def test_no_remainder_wraps_inside_one_block():
    """Every hand-built labeling of up to 7 labels, any flags, any split
    into blocks that each hold a flagged label, at every m: the step
    agrees with the reference, and no remainder's labels wrap past n with
    za and zb in one block, the case the step raises InternalInvariant
    on. It cannot occur (see doubling_step): Z holds no more labels than
    the split node's hanging span, which holds no flagged label, while za
    and zb are flagged. In another node's block they would leave the
    split node's whole block inside Z; in the split node's own, after its
    span, the whole span and more."""
    seen = set()
    for n in range(1, 8):
        for flags in itertools.product("01", repeat=n):
            for cuts in itertools.product((False, True), repeat=n - 1):
                bounds = [0, *(k for k, cut in enumerate(cuts, 1) if cut), n]
                blocks = ["".join(flags[a:b])
                          for a, b in itertools.pairwise(bounds)]
                if all("1" in block for block in blocks):
                    seen.update(_hand_built_step_agrees(blocks, m)
                                for m in range(1, n + 1))
    assert seen == {"raise", "direct", "inside", "two blocks"}


@functools.cache
def _corpus_tds():
    return tuple(td for _, _, td in acceptance_corpus())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_doubling_step_matches_the_reference_on_the_corpus(data):
    """Any corpus instance at any size, n included, gives the reference
    step's results step by step."""
    td = data.draw(st.sampled_from(_corpus_tds()))
    n = td.graph_n
    _steps_agree(td, data.draw(st.one_of(st.just(n), st.integers(1, n))))


def test_doubling_step_matches_the_reference_on_small_random_instances():
    """The random trees and random-td instances of the corpus, at m = 1,
    n/3, n/2 and n, give the reference step's results step by step; some
    remainder steps leave flags that read differently backwards."""
    asymmetric = set()
    for label, g, td in acceptance_corpus():
        if label.startswith(("rtree-", "rtd-")):
            n = g.n
            for m in sorted({1, n // 3, n // 2, n}):
                asymmetric.update(flip for kind, _, flip in _steps_agree(td, m)
                                  if kind != "direct")
    assert True in asymmetric


@st.composite
def connectivity_breaking_instances(draw):
    """A random graph with a decomposition (random-td, or the width-1
    decomposition of a random tree), node ids shuffled, with one to three
    cluster edits that add a vertex to a cluster or drop one from it. An
    added vertex often lies in clusters far away, which breaks cluster
    connectivity; a dropped one can leave a vertex or an edge uncovered.
    Returns (graph, decomposition, m)."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        g, td = random_graph_with_td(n, draw(st.integers(1, 4)), seed)
    else:
        g, td = make_instance("random-tree", n=n, seed=seed)
    clusters = {i: list(c) for i, c in td.clusters.items()}
    for _ in range(draw(st.integers(1, 3))):
        c = clusters[draw(st.sampled_from(td.nodes))]
        x = draw(st.integers(1, g.n))
        if x in c:
            c.remove(x)
        else:
            c.append(x)
    new_id = dict(zip(td.nodes, draw(st.permutations(td.nodes))))
    td = TreeDecomposition([new_id[i] for i in td.nodes],
                           [(new_id[a], new_id[b]) for a, b in td.edges()],
                           {new_id[i]: c for i, c in clusters.items()}, g.n)
    return g, td, draw(st.integers(0, g.n))


def _cut_or_treecut_error(g, td, m):
    """The cut, checked from scratch, or the TreecutError it raised. Under
    cluster connectivity every node of a normalized heaviest path adds a
    vertex no earlier node held, so the labeling's raise when one adds
    none must come with connectivity broken."""
    try:
        b, rep = exact_size_cut_linear(g, td, m)
    except TreecutError as exc:
        if "adds no vertex" in str(exc):
            assert not validate(g, td).connectivity_ok
        return exc
    side = bytearray(g.n + 1)
    for v in b:
        assert 1 <= v <= g.n and not side[v]
        side[v] = 1
    assert len(b) == m == rep.m
    assert rep.width == (cut_width(g, side) if 0 < m < g.n else 0)
    assert rep.width <= rep.bound
    return b


@settings(max_examples=300, deadline=None)
@given(connectivity_breaking_instances())
def test_a_cut_on_a_broken_decomposition_is_verified_or_a_treecut_error(inst):
    """On decompositions that break cluster connectivity, coverage or edge
    cover, the cut driver returns a cut of exactly m distinct vertices
    within its bound, or raises a TreecutError; no other exception. A
    path node that adds no vertex is raised only where connectivity
    fails."""
    _cut_or_treecut_error(*inst)


@pytest.mark.parametrize("outcome", ["cut", "error"])
def test_broken_decompositions_reach_both_outcomes(outcome):
    """The strategy above yields decompositions that break connectivity
    and are still cut, and others that end in a TreecutError."""
    def reached(inst):
        g, td, m = inst
        if validate(g, td).connectivity_ok:
            return False
        res = _cut_or_treecut_error(g, td, m)
        return isinstance(res, TreecutError) == (outcome == "error")
    find(connectivity_breaking_instances(), reached,
         settings=settings(max_examples=2000, database=None,
                           phases=[Phase.generate]))


def test_broken_decompositions_reach_the_labeling_raise():
    """The strategy above also yields decompositions on which a path node
    adds no vertex."""
    def reached(inst):
        res = _cut_or_treecut_error(*inst)
        return isinstance(res, InvalidDecomposition) and \
            "adds no vertex" in str(res)
    find(connectivity_breaking_instances(), reached,
         settings=settings(max_examples=2000, database=None,
                           phases=[Phase.generate]))


@pytest.mark.parametrize("m", range(6))
def test_a_path_labeled_only_from_its_other_end_raises(m):
    """Vertex 2 of the path 2-3-1-4-5 sits in the first and the last node
    of a path decomposition. Normalization merges nodes 3 and 4 under
    node 4's cluster, and the heaviest path, labeled from that end,
    reaches node 1 with both of its vertices labeled. From node 1's end
    every node would add a vertex, but the cut is not tried that way
    round: it raises at every size."""
    g = Graph(5, [(2, 3), (3, 1), (1, 4), (4, 5)])
    clusters = {1: [2, 3], 2: [3, 1], 3: [1, 4], 4: [4, 5, 2]}
    td = TreeDecomposition([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)],
                           clusters, 5)
    assert not validate(g, td).connectivity_ok
    with pytest.raises(InvalidDecomposition,
                       match="path node 1 adds no vertex"):
        exact_size_cut_linear(g, td, m)


@pytest.mark.parametrize("m", range(4))
def test_a_vertex_outside_the_graph_is_an_invalid_decomposition(m):
    """A decomposition over graph_n = 4 whose clusters cover the 3 vertices
    of the path 1-2-3 in number, but hold vertex 4 instead of vertex 3."""
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 4]}, 4)
    with pytest.raises(InvalidDecomposition, match="vertex 4 lies outside"):
        exact_size_cut_linear(path_graph(3), td, m)


def test_an_entry_far_above_the_graph_is_refused_before_normalizing():
    """The drivers compare the largest cluster entry with the graph's order
    before normalization sizes arrays by it: under a 1 GiB address space
    limit an entry of 1e12 raises InvalidDecomposition, not MemoryError, at
    every m, from the bisection and from the reference driver too."""
    out = run_capped("""
from helpers import exact_size_cut
from treecut.engine import exact_size_cut_linear, minimum_bisection
from treecut.errors import InvalidDecomposition
from treecut.generators import path_graph
from treecut.treedec import TreeDecomposition
g = path_graph(3)
td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3, 10 ** 12]},
                       10 ** 12)
calls = [lambda m=m: exact_size_cut_linear(g, td, m) for m in range(4)]
calls += [lambda: minimum_bisection(g, td), lambda: exact_size_cut(g, td, 1)]
for call in calls:
    try:
        call()
    except InvalidDecomposition as exc:
        print(exc)
""")
    assert out == "vertex 1000000000000 lies outside the graph's 1..3\n" * 6


def test_a_graph_n_far_above_the_clusters_sizes_no_array(tmp_path):
    """Per-vertex arrays span the graph's order and the largest cluster
    entry, not a graph_n the caller sets: with graph_n = 10**6 over the
    3-vertex path, validating, cutting, normalizing, the public heaviest
    path, the public approximate cut and `treecut approx-cut` without a
    graph, which refuses the uncovered vertex 4, each peak under 1 MB."""
    g = path_graph(3)
    td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3]}, 10 ** 6)
    tp = str(tmp_path / "td.json")
    save_td(td, tp)

    def approx_cut_cmd():
        res = CliRunner().invoke(main, ["approx-cut", "--td", tp, "--m", "2",
                                        "--c", "1/2"])
        assert res.exit_code == 2, res.output
        assert "error: vertex 4 in no cluster" in res.output

    calls = [lambda: validate(g, td), lambda: make_nonredundant(td),
             lambda: heaviest_path(td), lambda: minimum_bisection(g, td),
             *(lambda m=m: exact_size_cut_linear(g, td, m) for m in range(4)),
             lambda: approximate_cut(td, 2, Fraction(1, 2)), approx_cut_cmd]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


@st.composite
def relabeled_instances(draw):
    """A small random-td, random tree or caterpillar instance, and the
    same decomposition with its node ids mapped through a strictly
    increasing map into -3k..3k for k nodes, so sparse, zero and negative
    ids occur, or through a random permutation of such ids."""
    kind = draw(st.sampled_from(["random-td", "random-tree", "caterpillar"]))
    if kind == "random-td":
        g, td = random_graph_with_td(draw(st.integers(3, 40)),
                                     draw(st.integers(1, 4)),
                                     draw(st.integers(0, 10 ** 6)))
    elif kind == "random-tree":
        g, td = make_instance("random-tree", n=draw(st.integers(2, 60)),
                              seed=draw(st.integers(0, 10 ** 6)))
    else:
        g, td = make_instance("caterpillar", spine=draw(st.integers(1, 15)),
                              hairs=draw(st.integers(0, 3)))
    k = len(td.nodes)
    ids = sorted(draw(st.lists(st.integers(-3 * k, 3 * k), min_size=k,
                               max_size=k, unique=True)))
    monotone = draw(st.booleans())
    if not monotone:
        ids = draw(st.permutations(ids))
    new_id = dict(zip(sorted(td.nodes), ids))
    again = TreeDecomposition([new_id[i] for i in td.nodes],
                              [(new_id[a], new_id[b]) for a, b in td.edges()],
                              {new_id[i]: td.clusters[i] for i in td.nodes},
                              td.graph_n)
    return g, td, again, new_id, monotone


@settings(max_examples=120, deadline=None)
@given(relabeled_instances())
def test_node_ids_decide_the_cut_only_through_their_order(inst):
    """Node ids reach a cut only through the positional form's id list:
    the root is the smallest id, contracted edges are listed from their
    end of smaller id, and a hanging tree is re-rooted at its smallest id.
    A strictly increasing relabel keeps all three, so it gives the same B
    at every m and the same make_nonredundant output up to the relabel;
    any other relabel still gives a valid cut of every size."""
    g, td, again, new_id, monotone = inst
    if monotone:
        out, out_again = make_nonredundant(td), make_nonredundant(again)
        assert (out is td) == (out_again is again)
        if out is td:
            out = TreeDecomposition._trusted(
                [new_id[i] for i in td.nodes],
                [(new_id[a], new_id[b]) for a, b in td.edges()],
                {new_id[i]: td.clusters[i] for i in td.nodes}, td.graph_n)
        assert out_again.nodes == out.nodes
        assert list(out_again.neighbors.items()) == list(out.neighbors.items())
        assert list(out_again.clusters.items()) == list(out.clusters.items())
    for m in range(g.n + 1):
        b, report = exact_size_cut_linear(g, again, m)
        if monotone:
            assert b == exact_size_cut_linear(g, td, m)[0]
        side = bytearray(g.n + 1)
        for v in b:
            side[v] = 1
        assert len(b) == sum(side) == m
        assert report.width == cut_width(g, side) <= report.bound


def test_relabeled_instances_reach_zero_negative_and_contracted_ids():
    """The relabel strategy above maps ids to 0 and below 0, and reaches
    decompositions that contract, under either kind of map."""
    for reached in (lambda i: 0 in i[3].values(),
                    lambda i: min(i[3].values()) < 0,
                    lambda i: i[4] and make_nonredundant(i[1]) is not i[1],
                    lambda i: not i[4] and len(i[2].nodes) > 5):
        find(relabeled_instances(), reached,
             settings=settings(max_examples=2000, database=None,
                               phases=[Phase.generate]))
