"""Per-layer spans recorded from outside the library.

Timing wrappers replace each traced name where its callers look it up, and
the original is put back afterwards. Every call becomes a span with its own
id, the id of the span that caused it, and the id of the op it belongs to
(None during set-up). Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the time its child spans
cover. The wrappers' own bookkeeping is counted neither for the child nor
for the parent.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

from treecut import approxcut, engine, fileio, generators, graph, labeling, treedec


@dataclass
class Layer:
    """A traced name: `owner.attr` is replaced while tracing.

    `pre` and `post` map count names to functions of (args) and
    (args, result). They run outside the span's timed interval.
    """

    name: str
    owner: object
    attr: str
    pre: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)


def _entries(args, result):
    return sum(len(c) for c in args[0].clusters.values())


LAYERS = [
    Layer("generators.make_instance", generators, "make_instance"),
    Layer("fileio.parse_graph", fileio, "parse_graph"),
    Layer("treedec.from_json", treedec.TreeDecomposition, "from_json"),
    Layer("treedec.validate", treedec, "validate"),
    Layer("graph.Graph", graph.Graph, "__init__"),
    Layer("treedec.TreeDecomposition", treedec.TreeDecomposition, "__init__",
          post={"entries": _entries}),
    Layer("engine.exact_size_cut_linear", engine, "exact_size_cut_linear",
          post={"ops": lambda a, r: r[1].ops}),
    Layer("treedec.make_nonredundant", engine, "make_nonredundant",
          post={"nodes_in": lambda a, r: len(a[0].nodes),
                "nodes_out": lambda a, r: len(r.nodes)}),
    Layer("labeling.build_plabeling", engine, "build_plabeling",
          post={"labels": lambda a, r: r.n}),
    Layer("treedec.heaviest_path", labeling, "heaviest_path"),
    Layer("engine.doubling_step", engine, "doubling_step",
          pre={"scan_labels": lambda a: a[0].n},
          post={"direct": lambda a, r: int(r.kind == "direct")}),
    Layer("approxcut.approximate_cut", engine, "approximate_cut",
          post={"rounds": lambda a, r: r.rounds}),
    Layer("approxcut.compute_subtree_weights", approxcut,
          "compute_subtree_weights"),
    Layer("graph.cut_width", engine, "cut_width"),
]


class Tracer:
    def __init__(self):
        # span: [name, id, parent id, op id, enter, start, end, exit, counts]
        self.spans = []
        self.op = None
        self.missing = set()  # layers whose name no longer exists
        self.broken = set()   # counts whose function raised
        self._stack = []
        self._saved = []

    def install(self):
        for layer in LAYERS:
            owner, attr = layer.owner, layer.attr
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(layer.name)
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(layer, original.__func__))
            else:
                replacement = self._wrap(layer, original)
            setattr(owner, attr, replacement)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count(self, counts, name, fn, *args):
        try:
            counts[name] = fn(*args)
        except Exception:  # a renamed field: report the count as missing
            self.broken.add(name)

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            enter = perf_counter()
            counts = {}
            for name, f in layer.pre.items():
                self._count(counts, name, f, args)
            rec = [layer.name, len(spans), stack[-1] if stack else None,
                   self.op, enter, 0.0, 0.0, 0.0, counts]
            spans.append(rec)
            stack.append(rec[1])
            rec[5] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = perf_counter()
                stack.pop()
            for name, f in layer.post.items():
                self._count(counts, name, f, args, result)
            rec[7] = perf_counter()
            return result

        return traced

    def totals(self, ops):
        """Self seconds, calls and summed counts per layer over `ops`.

        `ops` is a set of op ids; None selects the set-up spans.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[2] is not None:
                covered[s[2]] += s[7] - s[4]
        self_s, calls, counts = {}, {}, {}
        for s in self.spans:
            if s[3] not in ops:
                continue
            name = s[0]
            self_s[name] = self_s.get(name, 0.0) + (s[6] - s[5]) - covered[s[1]]
            calls[name] = calls.get(name, 0) + 1
            for key, val in s[8].items():
                counts[key] = counts.get(key, 0) + val
        return self_s, calls, counts

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[0], "id": s[1], "parent": s[2], "op": s[3],
                    "start": s[5], "end": s[6], "counts": s[8]}) + "\n")


# Ratios of summed counts: (metric, unit, layer, numerator, denominator).
# Besides the counts recorded by LAYERS, "op_runs" is the number of traced
# ops, "steps" the doubling_step calls and "cuts" the exact_size_cut_linear
# calls.
DERIVED = [
    ("treedec.make_nonredundant.kept_frac", "ratio",
     "treedec.make_nonredundant", "nodes_out", "nodes_in"),
    ("treedec.TreeDecomposition.entries", "entries/op",
     "treedec.TreeDecomposition", "entries", "op_runs"),
    ("labeling.labels", "labels/op", "labeling.build_plabeling", "labels",
     "op_runs"),
    ("engine.steps_per_cut", "steps/cut", "engine.doubling_step", "steps",
     "cuts"),
    ("engine.direct_frac", "ratio", "engine.doubling_step", "direct", "steps"),
    ("engine.scan_labels", "labels/op", "engine.doubling_step", "scan_labels",
     "op_runs"),
    ("approxcut.rounds", "rounds/op", "approxcut.approximate_cut", "rounds",
     "op_runs"),
    ("engine.ops", "ops/cut", "engine.exact_size_cut_linear", "ops", "cuts"),
]
SETUP_LAYER = "generators.make_instance"


def layer_metrics(tracer, n_ops, op_ids, overhead):
    """Every per-layer metric; None marks a layer or count that is missing."""
    self_s, calls, counts = tracer.totals(op_ids)
    setup_self = tracer.totals({None})[0]
    counts.update(op_runs=n_ops, steps=calls.get("engine.doubling_step", 0),
                  cuts=calls.get("engine.exact_size_cut_linear", 0))

    def share(layer, num, den, keys=()):
        gone = layer in tracer.missing or tracer.broken.intersection(keys)
        return None if gone or not den else num / den

    out = {}
    for layer in LAYERS:
        name = layer.name
        if name == SETUP_LAYER:
            out[name + ".self_ms"] = (
                share(name, 1000.0 * setup_self.get(name, 0.0), 1), "ms/setup")
            continue
        out[name + ".self_ms"] = (
            share(name, 1000.0 * self_s.get(name, 0.0), n_ops), "ms/op")
        out[name + ".calls"] = (share(name, calls.get(name, 0), n_ops),
                                "calls/op")
    for metric, unit, layer, num, den in DERIVED:
        out[metric] = (share(layer, counts.get(num, 0), counts.get(den, 0),
                             (num, den)), unit)
    out["trace_overhead_frac"] = (overhead, "ratio")
    return out
