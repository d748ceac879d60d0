"""The entry points that build input-sized containers pause the cyclic
garbage collector, hand its state back as they found it, and leave no
cyclic garbage behind them."""
import gc
import inspect
import sys
from types import SimpleNamespace

import pytest

from helpers import acceptance_corpus
from treecut import approxcut, engine, fileio, generators, treedec
from treecut.approxcut import approximate_cut
from treecut.engine import exact_size_cut_linear, minimum_bisection
from treecut.errors import TreecutError
from treecut.generators import make_instance
from treecut.graph import Graph
from treecut.treedec import (
    TreeDecomposition,
    make_nonredundant,
    tree_to_width1_td,
    validate,
)

G, TD = make_instance("random-td", n=40, width=2, seed=3)
TREE = make_instance("random-tree", n=40, seed=3)[0]
EDGES = list(G.edges())
G_TEXT = fileio.format_graph(G)
G_JSON = fileio.graph_to_json(G)
TD_TEXT = TD.to_json()

# each wrapped name: (the function it wraps, a call on a small instance)
ENTRIES = {
    "Graph": (Graph.__init__, lambda: Graph(G.n, EDGES)),
    "TreeDecomposition": (
        TreeDecomposition.__init__,
        lambda: TreeDecomposition(TD.nodes, list(TD.edges()), TD.clusters,
                                  TD.graph_n)),
    "from_json": (TreeDecomposition.from_json.__func__,
                  lambda: TreeDecomposition.from_json(TD_TEXT)),
    "parse_graph": (fileio.parse_graph, lambda: fileio.parse_graph(G_TEXT)),
    "graph_from_json": (fileio.graph_from_json,
                        lambda: fileio.graph_from_json(G_JSON)),
    "validate": (validate, lambda: validate(G, TD)),
    "exact_size_cut_linear": (exact_size_cut_linear,
                              lambda: exact_size_cut_linear(G, TD, 13)),
    "approximate_cut": (approximate_cut,
                        lambda: approximate_cut(TD, 13, 0.5, g=G)),
    "make_instance": (make_instance,
                      lambda: make_instance("random-td", n=40, width=2)),
    "tree_to_width1_td": (tree_to_width1_td, lambda: tree_to_width1_td(TREE)),
    "make_nonredundant": (make_nonredundant, lambda: make_nonredundant(TD)),
}


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """The collector's state on entry to the call under test."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ENTRIES)
def test_no_collection_starts_inside_an_entry_point(name):
    fn, call = ENTRIES[name]
    code = inspect.unwrap(fn).__code__
    started = []

    def probe(phase, info):
        # a collection counts when the wrapped body is on the stack
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is code:
                started.append(info["generation"])
                break
            frame = frame.f_back

    threshold = gc.get_threshold()
    gc.callbacks.append(probe)
    gc.set_threshold(1)
    try:
        call()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(probe)
    assert started == []


@pytest.mark.parametrize("name", ENTRIES)
def test_an_entry_point_restores_the_collector(name, collector):
    ENTRIES[name][1]()
    assert gc.isenabled() is collector


class Probe:
    """Records the collector's state when called or iterated, then raises."""

    def __init__(self):
        self.seen = []

    def __call__(self, *args, **kwargs):
        self.seen.append(gc.isenabled())
        raise TreecutError("probe")

    def __iter__(self):
        return self()


# each entry point called so that its body reaches the probe
RAISING = {
    "Graph": lambda p, mp: Graph(3, p),
    "TreeDecomposition": lambda p, mp: TreeDecomposition(p, [], {}, 3),
    "from_json": lambda p, mp: (
        mp.setattr(treedec, "json", SimpleNamespace(loads=p)),
        TreeDecomposition.from_json(TD_TEXT)),
    "parse_graph": lambda p, mp: (mp.setattr(fileio, "Graph", p),
                                  fileio.parse_graph(G_TEXT)),
    "graph_from_json": lambda p, mp: (
        mp.setattr(fileio, "json", SimpleNamespace(loads=p)),
        fileio.graph_from_json(G_JSON)),
    "validate": lambda p, mp: (mp.setattr(treedec, "check_graph", p),
                               validate(G, TD)),
    "exact_size_cut_linear": lambda p, mp: (
        mp.setattr(engine, "make_nonredundant", p),
        exact_size_cut_linear(G, TD, 13)),
    "minimum_bisection": lambda p, mp: (
        mp.setattr(engine, "make_nonredundant", p), minimum_bisection(G, TD)),
    "approximate_cut": lambda p, mp: (
        mp.setattr(approxcut, "_cut_tree", p),
        approximate_cut(TD, 13, 0.5)),
    "make_instance": lambda p, mp: (
        mp.setattr(generators, "random_graph_with_td", p),
        make_instance("random-td", n=40)),
    "tree_to_width1_td": lambda p, mp: (mp.setattr(treedec, "_tree_path", p),
                                        tree_to_width1_td(TREE)),
    "make_nonredundant": lambda p, mp: (mp.setattr(treedec, "normalize", p),
                                        make_nonredundant(TD)),
}


@pytest.mark.parametrize("name", RAISING)
def test_a_raising_entry_point_runs_paused_and_restores(
        name, collector, monkeypatch):
    probe = Probe()
    with pytest.raises(TreecutError, match="probe"):
        RAISING[name](probe, monkeypatch)
    assert probe.seen == [False]
    assert gc.isenabled() is collector


def test_minimum_bisection_runs_its_nested_cut_paused(collector, monkeypatch):
    seen = []
    normalize = engine.make_nonredundant

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return normalize(*args, **kwargs)

    monkeypatch.setattr(engine, "make_nonredundant", probe)
    (b, w), report = minimum_bisection(G, TD)
    assert seen == [False]
    assert gc.isenabled() is collector
    assert len(b) == G.n // 2


def test_the_pause_defers_no_cyclic_garbage():
    # garbage made with the collector off stays until the final collection
    gc.collect()
    gc.disable()
    try:
        for label, g, td in acceptance_corpus():
            td = TreeDecomposition.from_json(td.to_json())
            assert validate(g, td).ok, label
            m = g.n // 2
            exact_size_cut_linear(g, td, m)
            if m:
                approximate_cut(td, m, 0.5, g=g)
        assert gc.collect() == 0
    finally:
        gc.enable()
