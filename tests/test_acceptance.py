"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS line, and
asserts its own wall-clock budget.
"""
import math
import random
import time
from fractions import Fraction

from helpers import (
    acceptance_corpus,
    brute_force_heaviest_path,
    exact_size_cut,
    per_vertex,
    run_checked,
    small_fixtures,
    ternary_bisection_lower_bound,
)
from treecut.approxcut import approximate_cut
from treecut.engine import exact_size_cut_linear, minimum_bisection
from treecut.generators import (
    grid_graph,
    grid_td,
    make_instance,
    path_graph,
    random_graph_with_td,
    random_tree,
    ternary_tree,
)
from treecut.graph import max_degree
from treecut.oracle import brute_force_min_cut_size_m, tree_dp_min_bisection
from treecut.labeling import build_plabeling
from treecut.treedec import (
    heaviest_path,
    make_nonredundant,
    normalize,
    tree_to_width1_td,
    validate,
)


def test_criterion_1_bound_compliance_across_corpus():
    start = time.perf_counter()
    count = 0
    for label, g, td in acceptance_corpus():
        (b, w), rep = minimum_bisection(g, td)
        assert len(b) == g.n // 2, label
        assert len(b) + len(w) == g.n, label
        assert rep.width <= rep.bound + 1e-9, (label, rep.width, rep.bound)
        assert rep.width <= rep.legible_bound + 1e-9, label
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 500
    assert elapsed < 60.0
    print("criterion 1: PASS (%d instances, %.1fs)" % (count, elapsed))


def test_criterion_2_every_size_exact():
    start = time.perf_counter()
    checked = 0
    for label, g, td in small_fixtures():
        for m in range(g.n + 1):
            for driver in (exact_size_cut_linear, exact_size_cut):
                b, rep = driver(g, td, m)
                assert len(b) == len(set(b)) == m, (label, m)
                assert rep.width <= rep.bound + 1e-9, (label, m)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("criterion 2: PASS (%d cuts, %.1fs)" % (checked, elapsed))


def test_criterion_3_approximate_cut_contract():
    start = time.perf_counter()
    rng = random.Random(42)
    for trial in range(1000):
        n = rng.randint(4, 40)
        width = rng.randint(1, 3)
        g, td0 = random_graph_with_td(n, width, rng.randint(0, 10 ** 6))
        td = make_nonredundant(td0)
        m = rng.randint(1, g.n)
        c = Fraction(rng.randint(1, 9), 10)
        res = approximate_cut(td, m, c, g=g)
        b = set(res.b_vertices)
        assert c * m < len(b) <= m, trial
        assert res.rounds <= max(math.ceil(math.log2(1 / (1 - c))), 0)
        assert res.width <= res.rounds * (td.width() + 1) * max_degree(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("criterion 3: PASS (1000 trials, %.1fs)" % elapsed)


def test_criterion_4_oracle_sandwich():
    start = time.perf_counter()
    rng = random.Random(7)
    for trial in range(200):
        n = rng.randint(4, 16)
        g = random_tree(n, rng.randint(0, 10 ** 6))
        td = tree_to_width1_td(g)
        m = g.n // 2
        opt, _ = brute_force_min_cut_size_m(g, m)
        assert tree_dp_min_bisection(g, m) == opt, trial
        _, rep = exact_size_cut_linear(g, td, m)
        assert opt <= rep.width <= rep.bound + 1e-9, trial
    for trial in range(50):
        n = rng.randint(4, 14)
        g, td = random_graph_with_td(n, rng.randint(1, 3),
                                     rng.randint(0, 10 ** 6))
        m = g.n // 2
        opt, _ = brute_force_min_cut_size_m(g, m)
        _, rep = exact_size_cut_linear(g, td, m)
        assert opt <= rep.width <= rep.bound + 1e-9, trial
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print("criterion 4: PASS (250 sandwiches, %.1fs)" % elapsed)


def test_criterion_5_ternary_lower_bound():
    start = time.perf_counter()
    for h in range(2, 7):
        g = ternary_tree(h)
        opt = tree_dp_min_bisection(g)
        lb = ternary_bisection_lower_bound(h)
        assert opt >= lb - 1e-9, (h, opt, lb)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("criterion 5: PASS (heights 2..6, %.1fs)" % elapsed)


def test_criterion_6_step_properties_across_corpus():
    start = time.perf_counter()
    count = 0
    non_direct = 0
    for label, g, td in acceptance_corpus():
        b, kinds, _ = run_checked(g, td, g.n // 2)
        assert len(b) == g.n // 2, label
        non_direct += sum(1 for k in kinds if k != "direct")
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 500
    assert non_direct > 0  # the sweep must exercise the doubling cases
    assert elapsed < 300.0
    print("criterion 6: PASS (%d instances, %d non-direct steps, %.1fs)"
          % (count, non_direct, elapsed))


def test_criterion_7_linear_work():
    start = time.perf_counter()
    kappa = 0.0
    for family, kw in (("path", "n"), ("spider", "legs"), ("ternary", "h")):
        prev = None
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            if family == "path":
                g, td = make_instance("path", n=n)
            elif family == "spider":
                leg = (n - 1) // 3
                g, td = make_instance("spider", legs=[leg, leg, leg])
            else:
                h = round(math.log(2 * n + 1, 3)) - 1
                g, td = make_instance("ternary", h=h)
            _, rep = exact_size_cut_linear(g, td, g.n // 2)
            size = td.size()
            kappa = max(kappa, rep.ops / size)
            if prev is not None:
                p_ops, p_size = prev
                # work may not grow faster than the input (small slack)
                assert rep.ops / p_ops <= 1.25 * size / p_size, family
            prev = (rep.ops, size)
    elapsed = time.perf_counter() - start
    assert kappa <= 25.0
    assert elapsed < 120.0
    print("criterion 7: PASS (kappa=%.1f, %.1fs)" % (kappa, elapsed))


def test_criterion_8_subroutine_contracts():
    start = time.perf_counter()
    rng = random.Random(99)
    for trial in range(200):
        n = rng.randint(4, 16)
        _, td0 = random_graph_with_td(n, rng.randint(1, 3),
                                      rng.randint(0, 10 ** 6))
        td = make_nonredundant(td0)
        if len(td.nodes) <= 12:
            best, _ = brute_force_heaviest_path(td)
            path, rep = heaviest_path(td)
            assert rep.path_weight == best, trial
    for trial in range(200):
        n = rng.randint(4, 24)
        g, td0 = random_graph_with_td(n, rng.randint(1, 4),
                                      rng.randint(0, 10 ** 6))
        td = make_nonredundant(td0)
        assert validate(g, td).ok, trial
        assert len(td.nodes) <= g.n, trial
        for i, j in td.edges():
            ci, cj = set(td.clusters[i]), set(td.clusters[j])
            assert not ci <= cj and not cj <= ci, trial
    for trial in range(200):
        n = rng.randint(4, 24)
        g, td0 = random_graph_with_td(n, rng.randint(1, 3),
                                      rng.randint(0, 10 ** 6))
        pl = build_plabeling(normalize(td0))
        assert sorted(pl.vertex_of[1:]) == list(range(1, g.n + 1)), trial
        is_pv = per_vertex(pl).is_path_vertex
        for i, (a, r, b) in pl.blocks().items():
            assert a <= r <= b, trial
            assert all(is_pv[pl.vertex_of[lab]]
                       for lab in range(r, b + 1)), trial
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print("criterion 8: PASS (600 trials, %.1fs)" % elapsed)


def test_criterion_9_full_weight_instances_resolve_directly():
    start = time.perf_counter()
    for n in (10, 100, 1000):
        g = path_graph(n)
        td = tree_to_width1_td(g)
        _, rep = exact_size_cut_linear(g, td, n // 2)
        assert [s.kind for s in rep.steps] == ["direct"], n
        assert rep.r == 1
        assert rep.width <= 2 * rep.t * rep.delta, n
    for k in (3, 5, 8):
        g = grid_graph(k)
        _, rep = exact_size_cut_linear(g, grid_td(k), g.n // 2)
        assert [s.kind for s in rep.steps] == ["direct"], k
        assert rep.r == 1
        assert rep.width <= 2 * rep.t * rep.delta, k
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("criterion 9: PASS (%.1fs)" % elapsed)
