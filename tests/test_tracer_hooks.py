"""The benchmark tracer still finds every name and field it reads.

perfbench/tracing.py replaces module attributes of the library and reads
fields of their arguments and results. A renamed function or field does not
fail the benchmark; it nulls the affected metrics. This test runs three
cuts, one of them on a contracting decomposition, and one validation under
the tracer and asserts that nothing went missing.
"""
import importlib.util
import sys
from pathlib import Path

from treecut import engine, treedec
from treecut.generators import make_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_and_count(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    normalized = {}  # family -> counts of its make_nonredundant spans
    per_cut = []  # (non-direct steps, approximate cuts, subtree weights)
    paths = []  # heaviest-path spans per cut
    widths = []  # cut_width spans per cut
    directs = []  # (step spans, their direct counts), the same off the report
    try:
        for family, params, m in (
                ("ternary", {"h": 4}, 60),
                ("random-td", {"n": 60, "width": 3, "seed": 0}, 30),
                ("grid", {"k": 4}, 8)):
            g, td = make_instance(family, **params)
            first = len(tracer.spans)
            _, report = engine.exact_size_cut_linear(g, td, m)
            spans = tracer.spans[first:]
            normalized[family] = [s[8] for s in spans
                                  if s[0] == "treedec.make_nonredundant"]
            per_cut.append((
                sum(1 for s in spans if s[0] == "engine.doubling_step"
                    and not s[8]["direct"]),
                sum(1 for s in spans if s[0] == "approxcut.approximate_cut"),
                sum(1 for s in spans
                    if s[0] == "approxcut.compute_subtree_weights")))
            paths.append(sum(1 for s in spans
                             if s[0] == "treedec.heaviest_path"))
            widths.append(sum(1 for s in spans if s[0] == "graph.cut_width"))
            steps = [s[8]["direct"] for s in spans
                     if s[0] == "engine.doubling_step"]
            directs.append(((len(steps), sum(steps)), (
                len(report.steps),
                sum(1 for s in report.steps if s.kind == "direct"))))
        assert treedec.validate(g, td).ok  # the grid; ingest times this layer
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert tracer.broken == set()
    # random-td contracts, so the contracting branch ran under the tracer
    (counts,) = normalized["random-td"]
    assert counts["nodes_out"] < counts["nodes_in"]
    # each step that is not direct makes one approximate cut, which computes
    # its subtree weights once
    for steps, cuts, weights in per_cut:
        assert steps == cuts == weights
    assert any(cuts for _, cuts, _ in per_cut)
    # every labeling finds its path through the traced name, once per cut
    assert paths == [1, 1, 1]
    # each cut counts its width once, and the tracer reads each step's
    # case off the record the step returns
    assert widths == [1, 1, 1]
    assert all(spans == steps for spans, steps in directs)
    assert any(direct for _, (_, direct) in directs)
    seen = {s[0] for s in tracer.spans}
    for name in ("engine.exact_size_cut_linear", "treedec.make_nonredundant",
                 "labeling.build_plabeling", "treedec.heaviest_path",
                 "engine.doubling_step",
                 "approxcut.approximate_cut",
                 "approxcut.compute_subtree_weights", "graph.cut_width",
                 "treedec.validate"):
        assert name in seen, name
