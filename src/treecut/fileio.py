"""Reading and writing graphs and decompositions.

Graph text format: header "n m" followed by m lines "u v" (1-based).
DIMACS-style input ("p edge n m" / "e u v" / "c ..." comments) is accepted
transparently. Graphs also round-trip through JSON mirroring the fields.
"""
from __future__ import annotations

import json

from .errors import DecompositionFormatError, GraphFormatError
from .graph import Graph
from .treedec import TreeDecomposition
from .util import no_gc


@no_gc
def parse_graph(text):
    if not isinstance(text, str):
        raise GraphFormatError("graph text must be a str, not %s"
                               % type(text).__name__)
    edges = []
    n = m = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if line.startswith("p"):
            kind, ok = "header", len(parts) >= 3
        elif line.startswith("e"):
            kind, ok = "edge", len(parts) == 3
        else:
            kind, ok = "header" if n is None else "edge", len(parts) == 2
        if not ok:
            raise GraphFormatError("bad %s line %r" % (kind, raw))
        try:
            a, b = int(parts[-2]), int(parts[-1])
        except ValueError:
            raise GraphFormatError("non-integer field in %s line %r"
                                   % (kind, raw)) from None
        if kind == "edge":
            edges.append((a, b))
        else:
            n, m = a, b
    if n is None:
        raise GraphFormatError("missing graph header")
    if m is not None and m != len(edges):
        raise GraphFormatError("header announces %d edges, found %d"
                               % (m, len(edges)))
    return Graph(n, edges)


def format_graph(g):
    lines = ["%d %d" % (g.n, g.m_edges)]
    lines.extend("%d %d" % e for e in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_json(g):
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


@no_gc
def graph_from_json(text):
    try:
        obj = json.loads(text)
        return Graph(obj["n"], [tuple(e) for e in obj["edges"]])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise GraphFormatError("bad graph JSON: %s" % exc)


def _read_text(path, error):
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error("cannot decode %s: %s" % (path, exc)) from None


def load_graph(path):
    text = _read_text(path, GraphFormatError)
    if str(path).endswith(".json"):
        return graph_from_json(text)
    return parse_graph(text)


def save_graph(g, path):
    with open(path, "w") as fh:
        if str(path).endswith(".json"):
            fh.write(graph_to_json(g))
        else:
            fh.write(format_graph(g))


def load_td(path):
    return TreeDecomposition.from_json(
        _read_text(path, DecompositionFormatError))


def save_td(td, path):
    with open(path, "w") as fh:
        fh.write(td.to_json())
