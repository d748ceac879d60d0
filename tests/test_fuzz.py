"""Mutated input texts end in a TreecutError, never in a bare exception.

Graph texts and decomposition JSON texts of small valid instances get a few
token edits: a token deleted, duplicated or garbled, or a number swapped for
a string, a float, a negative or null. Whatever the edit, the library may
only raise a TreecutError, and the CLI may only exit with 0 or 2.
"""
import re

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from treecut.cli import main
from treecut.engine import exact_size_cut_linear
from treecut.errors import TreecutError
from treecut.fileio import format_graph, parse_graph
from treecut.generators import make_instance, random_graph_with_td
from treecut.treedec import TreeDecomposition, validate

TOKEN = re.compile(r'-?\d+(?:\.\d+)?|"[^"]*"|[A-Za-z_]+|\s+|.')
NUMBER = re.compile(r"-?\d")
SWAPS = ['"x"', "1.5", "-3", "null", "0"]
GARBLE = st.text(st.sampled_from('0123456789-.,:[]{}"epcx '), min_size=1,
                 max_size=3)


@st.composite
def instances(draw):
    family = draw(st.sampled_from(["random-td", "random-tree", "grid"]))
    if family == "random-td":
        return random_graph_with_td(draw(st.integers(2, 12)),
                                    draw(st.integers(1, 3)),
                                    draw(st.integers(0, 10 ** 6)))
    if family == "random-tree":
        return make_instance("random-tree", n=draw(st.integers(1, 12)),
                             seed=draw(st.integers(0, 10 ** 6)))
    return make_instance("grid", k=draw(st.integers(1, 3)))


@st.composite
def mutated(draw, text):
    """`text` after one to three token edits."""
    toks = TOKEN.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        if not toks:
            break
        k = draw(st.integers(0, len(toks) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "garble", "swap"]))
        if edit == "delete":
            del toks[k]
        elif edit == "duplicate":
            toks.insert(k, toks[k])
        elif edit == "garble":
            toks[k] = draw(GARBLE)
        else:
            numbers = [j for j, tok in enumerate(toks) if NUMBER.match(tok)]
            if numbers:
                toks[draw(st.sampled_from(numbers))] = draw(
                    st.sampled_from(SWAPS))
    return "".join(toks)


@st.composite
def mutated_pairs(draw):
    """Graph text and decomposition JSON of one instance, at least one of
    them mutated."""
    g, td = draw(instances())
    graph_text, td_text = format_graph(g), td.to_json()
    which = draw(st.sampled_from(["graph", "td", "both"]))
    if which != "td":
        graph_text = draw(mutated(graph_text))
    if which != "graph":
        td_text = draw(mutated(td_text))
    return graph_text, td_text


@settings(max_examples=300, deadline=None)
@given(mutated_pairs(), st.integers(0, 20))
def test_library_raises_only_treecut_errors(texts, m):
    graph_text, td_text = texts
    try:
        g = parse_graph(graph_text)
    except TreecutError:
        g = None
    try:
        td = TreeDecomposition.from_json(td_text)
    except TreecutError:
        return
    if g is None:
        return
    try:
        validate(g, td)
    except TreecutError:
        pass
    try:
        exact_size_cut_linear(g, td, min(m, g.n))
    except TreecutError:
        pass


@settings(max_examples=60, deadline=None)
@given(mutated_pairs())
def test_cli_exits_0_or_2(texts):
    graph_text, td_text = texts
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("g.edges", "w") as fh:
            fh.write(graph_text)
        with open("t.json", "w") as fh:
            fh.write(td_text)
        for command in ("validate", "bisect"):
            res = runner.invoke(main, [command, "--graph", "g.edges",
                                       "--td", "t.json"])
            assert res.exit_code in (0, 2), (command, res.output,
                                             res.exception)
