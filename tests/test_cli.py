import dataclasses
import json

import pytest
from click.testing import CliRunner

from treecut import engine
from treecut.cli import main
from treecut.bench import BenchRow, rows_to_csv, rows_to_json, run_bench
from treecut.errors import BadSize, GraphFormatError
from treecut.fileio import (
    load_graph,
    load_td,
    parse_graph,
    save_graph,
    save_td,
)
from treecut.generators import path_graph, random_graph_with_td
from treecut.graph import Graph
from treecut.treedec import TreeDecomposition, tree_to_width1_td


def _write_instance(tmp_path, g, td, stem="inst"):
    gp = tmp_path / ("%s.edges" % stem)
    tp = tmp_path / ("%s.td.json" % stem)
    save_graph(g, str(gp))
    save_td(td, str(tp))
    return str(gp), str(tp)


def test_gen_validate_roundtrip(tmp_path):
    runner = CliRunner()
    gp = str(tmp_path / "g.edges")
    tp = str(tmp_path / "t.td.json")
    res = runner.invoke(main, ["gen", "--family", "path", "--n", "12",
                               "--out-graph", gp, "--out-td", tp])
    assert res.exit_code == 0, res.output
    assert "n=12" in res.output
    res = runner.invoke(main, ["validate", "--graph", gp, "--td", tp])
    assert res.exit_code == 0
    assert res.output.count("ok") == 3


def test_gen_deterministic(tmp_path):
    runner = CliRunner()
    outs = []
    for tag in ("a", "b"):
        gp = tmp_path / ("g%s.edges" % tag)
        tp = tmp_path / ("t%s.td.json" % tag)
        res = runner.invoke(main, ["gen", "--family", "random-tree", "--n",
                                   "30", "--seed", "7",
                                   "--out-graph", str(gp),
                                   "--out-td", str(tp)])
        assert res.exit_code == 0
        outs.append((gp.read_text(), tp.read_text()))
    assert outs[0] == outs[1]


def test_validate_rejects_bad_td(tmp_path):
    runner = CliRunner()
    g = path_graph(4)
    td = tree_to_width1_td(path_graph(3))  # misses edge (3, 4)
    td.graph_n = 4
    gp, tp = _write_instance(tmp_path, g, td)
    res = runner.invoke(main, ["validate", "--graph", gp, "--td", tp])
    assert res.exit_code == 2
    assert "FAIL" in res.output


def test_bisect_report(tmp_path):
    runner = CliRunner()
    g = path_graph(10)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    rp = tmp_path / "report.json"
    res = runner.invoke(main, ["bisect", "--graph", gp, "--td", tp,
                               "--report", str(rp)])
    assert res.exit_code == 0, res.output
    assert "m=5" in res.output
    d = json.loads(rp.read_text())
    assert d["m"] == 5 and len(d["b_vertices"]) == 5
    assert d["width"] <= d["bound"]


def test_bisect_m_cuts_the_given_size(tmp_path):
    g, td = random_graph_with_td(15, 2, 3)
    gp, tp = _write_instance(tmp_path, g, td)
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp,
                                    "--m", "4", "--report", "-"])
    assert res.exit_code == 0, res.output
    assert "n=15 m=4 " in res.output
    report = json.loads(res.output[res.output.index("{"):])
    b, _ = engine.exact_size_cut_linear(g, td, 4)
    assert report["m"] == 4 and report["b_vertices"] == b


def _split_subtree_instance(tmp_path):
    """Vertex 5 sits in clusters 3 and 4, which the tree does not join
    through a node holding 5; every edge and vertex is covered."""
    g = Graph(7, [(1, 2), (2, 3), (3, 5), (3, 6), (1, 4), (4, 5), (6, 7)])
    td = TreeDecomposition(
        [1, 2, 3, 4, 5], [(1, 2), (2, 3), (1, 4), (3, 5)],
        {1: [1, 2], 2: [2, 3], 3: [3, 5, 6], 4: [1, 4, 5], 5: [6, 7]}, 7)
    return _write_instance(tmp_path, g, td)


@pytest.mark.parametrize("args", [["validate"], ["bisect"],
                                  ["cut", "--m", "3"]])
def test_disconnected_occurrences_exit_2(tmp_path, args):
    gp, tp = _split_subtree_instance(tmp_path)
    res = CliRunner().invoke(main, args + ["--graph", gp, "--td", tp])
    assert res.exit_code == 2, res.output
    assert "vertex 5 appears in 2 separate subtrees" in res.output
    assert "r=" not in res.output and "B = " not in res.output


@pytest.mark.parametrize("with_graph", [True, False],
                         ids=["graph", "no-graph"])
def test_approx_cut_disconnected_occurrences_exit_2(tmp_path, with_graph):
    gp, tp = _split_subtree_instance(tmp_path)
    args = ["approx-cut", "--td", tp, "--m", "3", "--c", "1/2"]
    if with_graph:
        args += ["--graph", gp]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "vertex 5 appears in 2 separate subtrees" in res.output
    assert "B = " not in res.output


def test_approx_cut_uncovered_vertex_exits_2(tmp_path):
    td = tree_to_width1_td(path_graph(3))
    td.graph_n = 4  # vertex 4 is in no cluster
    _, tp = _write_instance(tmp_path, path_graph(4), td)
    res = CliRunner().invoke(main, ["approx-cut", "--td", tp, "--m", "2",
                                    "--c", "1/2"])
    assert res.exit_code == 2, res.output
    assert "vertex 4 in no cluster" in res.output


def test_bisect_width_above_bound_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "bound_value", lambda t, delta, r: 0)
    g = path_graph(10)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp])
    assert res.exit_code == 2, res.output
    assert "exceeds the bound" in res.output


def test_cut_exact_size(tmp_path):
    runner = CliRunner()
    g, td = random_graph_with_td(15, 2, 3)
    gp, tp = _write_instance(tmp_path, g, td)
    res = runner.invoke(main, ["cut", "--graph", gp, "--td", tp, "--m", "4"])
    assert res.exit_code == 0, res.output
    b_line = [l for l in res.output.splitlines() if l.startswith("B = ")][0]
    assert len(b_line.split()[2:]) == 4


def test_cut_bad_m(tmp_path):
    runner = CliRunner()
    g = path_graph(6)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    res = runner.invoke(main, ["cut", "--graph", gp, "--td", tp, "--m", "9"])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_approx_cut_fraction_arg(tmp_path):
    runner = CliRunner()
    g = path_graph(8)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    res = runner.invoke(main, ["approx-cut", "--td", tp, "--m", "6",
                               "--c", "2/3", "--graph", gp])
    assert res.exit_code == 0, res.output
    assert "rounds=" in res.output
    size = int(res.output.split("size=")[1].split()[0])
    assert 4 < size <= 6


def test_oracle_brute_and_dp(tmp_path):
    runner = CliRunner()
    g = path_graph(8)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    res = runner.invoke(main, ["oracle", "--graph", gp])
    assert res.exit_code == 0
    assert "min width: 1" in res.output
    res = runner.invoke(main, ["oracle", "--graph", gp, "--method", "tree-dp"])
    assert res.exit_code == 0
    assert "min width: 1 (tree DP)" in res.output


def test_bench_csv(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["bench", "--families", "path,star",
                               "--sizes", "20,40"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 5  # header + 2 families * 2 sizes


def test_bench_oracle_out_sizes_each_family(tmp_path):
    """`bench --oracle --out` sizes each family from the size asked for and
    fills the oracle width wherever an exact oracle runs: brute force up to
    16 vertices, the tree DP on larger trees, none on a larger grid."""
    out = tmp_path / "rows.json"
    res = CliRunner().invoke(main, [
        "bench", "--families", "ternary,grid,spider,caterpillar",
        "--sizes", "10,30", "--oracle", "--json", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "(8 rows)" in res.output
    rows = json.loads(out.read_text())
    assert [(r["family"], r["n"]) for r in rows] == [
        ("ternary", 4), ("ternary", 13), ("grid", 9), ("grid", 25),
        ("spider", 10), ("spider", 28), ("caterpillar", 9),
        ("caterpillar", 30)]
    for r in rows:
        if r["family"] == "grid" and r["n"] > 16:
            assert r["oracle_width"] is None
        else:
            assert 0 < r["oracle_width"] <= r["width"]


def test_run_bench_rejects_sizes_below_1():
    # and sizes that are not ints, a str and None included
    for n in (0, -4, "5", None, 2.5, True):
        with pytest.raises(BadSize):
            run_bench(["path"], [10, n])


def test_an_empty_bench_gives_a_header_only_csv():
    header = ",".join(f.name for f in dataclasses.fields(BenchRow))
    for rows in (run_bench([], [10]), run_bench(["path"], [])):
        assert rows == []
        assert rows_to_csv(rows) == header + "\r\n"
        assert rows_to_json(rows) == "[]"
    assert rows_to_csv(run_bench(["path"], [10])).startswith(header + "\r\n")


def test_dimacs_input(tmp_path):
    gp = str(tmp_path / "g.col")
    with open(gp, "w") as fh:
        fh.write("c a comment line\np edge 7 6\n"
                 + "".join("e %d %d\n" % (v, v + 1) for v in range(1, 7)))
    g2 = load_graph(gp)
    assert g2.n == 7 and sorted(g2.edges()) == sorted(path_graph(7).edges())


MALFORMED_GRAPHS = ["1 x\n", "p 3\n", "3 1\ne 1\n"]


@pytest.mark.parametrize("text", MALFORMED_GRAPHS)
def test_parse_graph_rejects_malformed_lines(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("text", MALFORMED_GRAPHS)
def test_bisect_malformed_graph_exits_2(tmp_path, text):
    gp = str(tmp_path / "g.edges")
    with open(gp, "w") as fh:
        fh.write(text)
    _, tp = _write_instance(tmp_path, path_graph(3),
                            tree_to_width1_td(path_graph(3)))
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert "Traceback" not in res.output


def test_graph_json_roundtrip(tmp_path):
    g, td = random_graph_with_td(12, 2, 1)
    gp = str(tmp_path / "g.json")
    tp = str(tmp_path / "t.json")
    save_graph(g, gp)
    save_td(td, tp)
    g2 = load_graph(gp)
    td2 = load_td(tp)
    assert sorted(g2.edges()) == sorted(g.edges())
    assert {i: sorted(c) for i, c in td2.clusters.items()} == \
        {i: sorted(c) for i, c in td.clusters.items()}
    assert td2.graph_n == td.graph_n


@pytest.mark.parametrize("n, width, seed", [(12, 2, 3), (20, 3, 1)])
def test_decomposition_json_roundtrip_keeps_the_cut(tmp_path, n, width, seed):
    """A decomposition saved and loaded again keeps each cluster's order,
    which decides the cut's ties, so it is cut as the one in memory is;
    with the clusters written sorted, both instances were cut otherwise."""
    g, td = random_graph_with_td(n, width, seed)
    _, tp = _write_instance(tmp_path, g, td)
    td2 = load_td(tp)
    assert td2.clusters == td.clusters
    assert (engine.minimum_bisection(g, td2)[0]
            == engine.minimum_bisection(g, td)[0])


@pytest.mark.parametrize("args", [["bisect"], ["cut", "--m", "0"]])
def test_empty_graph_exits_2(tmp_path, args):
    """The empty graph's one-node decomposition passes validate, but r is
    undefined at n = 0, so bisect and cut refuse it."""
    gp, tp = _write_instance(tmp_path, Graph(0, []),
                             TreeDecomposition([1], [], {1: []}, 0))
    runner = CliRunner()
    res = runner.invoke(main, ["validate", "--graph", gp, "--td", tp])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, args + ["--graph", gp, "--td", tp])
    _assert_usage_error(res)
    assert "every cluster is empty" in res.output


def _assert_usage_error(res):
    assert res.exit_code == 2, res.output
    assert res.output.count("error:") == 1
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["approx-cut", "--td", "{td}", "--m", "2", "--c", "abc"],
    ["approx-cut", "--td", "{td}", "--m", "2", "--c", "1/0"],
    ["gen", "--family", "spider", "--legs", "a,b",
     "--out-graph", "{out}.edges", "--out-td", "{out}.json"],
    ["bench", "--families", "path", "--sizes", "1x"],
    ["bench", "--families", "grid", "--sizes", "-4"],
    ["bench", "--families", "ternary", "--sizes", "-4"],
    ["bench", "--families", "path", "--sizes", "10,0"],
    ["gen", "--family", "spider", "--legs", "-2,3",
     "--out-graph", "{out}.edges", "--out-td", "{out}.json"],
    ["oracle", "--graph", "{graph}", "--method", "tree-dp", "--m", "50"],
    ["oracle", "--graph", "{graph}", "--method", "tree-dp", "--m", "-1"],
    ["oracle", "--graph", "{graph}", "--method", "brute", "--m", "50"],
    ["bench", "--families", ","],
    ["bench", "--families", ",", "--json"],
    ["bench", "--families", " , ", "--sizes", "10"],
    ["gen", "--family", "caterpillar", "--spine", "3", "--hairs", "-1",
     "--out-graph", "{out}.edges", "--out-td", "{out}.json"],
])
def test_bad_arguments_exit_2(tmp_path, args):
    g = path_graph(4)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    args = [a.format(graph=gp, td=tp, out=tmp_path / "out") for a in args]
    _assert_usage_error(CliRunner().invoke(main, args))


@pytest.mark.parametrize("family, option", [
    ("path", "n"), ("star", "n"), ("random-tree", "n"), ("random-td", "n"),
    ("ternary", "h"), ("grid", "k")])
def test_gen_without_size_exits_2(tmp_path, family, option):
    res = CliRunner().invoke(main, [
        "gen", "--family", family, "--out-graph", str(tmp_path / "g.edges"),
        "--out-td", str(tmp_path / "t.json")])
    _assert_usage_error(res)
    assert "--%s" % option in res.output


def test_non_int_node_id_exits_2(tmp_path):
    gp, _ = _write_instance(tmp_path, path_graph(3),
                            tree_to_width1_td(path_graph(3)))
    tp = str(tmp_path / "mixed.json")
    with open(tp, "w") as fh:
        json.dump({"nodes": [{"id": 1, "cluster": [1, 2]},
                             {"id": "b", "cluster": [2, 3]}],
                   "edges": [[1, "b"]]}, fh)
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp])
    _assert_usage_error(res)


def test_negative_graph_n_exits_2(tmp_path):
    gp = str(tmp_path / "g.edges")
    with open(gp, "w") as fh:
        fh.write("0 0\n")
    tp = str(tmp_path / "t.json")
    with open(tp, "w") as fh:
        json.dump({"graph_n": -3, "nodes": [{"id": 1, "cluster": []}],
                   "edges": []}, fh)
    res = CliRunner().invoke(main, ["validate", "--graph", gp, "--td", tp])
    _assert_usage_error(res)
    assert "graph_n" in res.output


@pytest.mark.parametrize("which", ["graph", "td"])
def test_non_utf8_input_exits_2(tmp_path, which):
    gp, tp = _write_instance(tmp_path, path_graph(3),
                             tree_to_width1_td(path_graph(3)))
    with open(gp if which == "graph" else tp, "wb") as fh:
        fh.write(b"\xff\xfe\x00bad")
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp])
    _assert_usage_error(res)


@pytest.mark.parametrize("which", ["graph", "td"])
def test_deeply_nested_json_exits_2(tmp_path, which):
    gp, tp = _write_instance(tmp_path, path_graph(3),
                             tree_to_width1_td(path_graph(3)))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    paths = {"graph": gp, "td": tp, which: str(deep)}
    res = CliRunner().invoke(main, ["validate", "--graph", paths["graph"],
                                    "--td", paths["td"]])
    _assert_usage_error(res)


@pytest.mark.parametrize("args", [
    ["validate", "--graph", "{dir}", "--td", "{td}"],
    ["validate", "--graph", "{graph}", "--td", "{dir}"],
    ["bisect", "--graph", "{dir}", "--td", "{td}"],
    ["cut", "--graph", "{graph}", "--td", "{dir}", "--m", "2"],
    ["approx-cut", "--td", "{dir}", "--m", "2", "--c", "1/2"],
    ["approx-cut", "--td", "{td}", "--m", "2", "--c", "1/2",
     "--graph", "{dir}"],
    ["oracle", "--graph", "{dir}"],
    ["gen", "--family", "path", "--n", "4", "--out-graph", "{dir}",
     "--out-td", "{out}.json"],
    ["gen", "--family", "path", "--n", "4", "--out-graph", "{out}.edges",
     "--out-td", "{dir}"],
    ["bench", "--families", "path", "--sizes", "10", "--out", "{dir}"],
    ["bisect", "--graph", "{graph}", "--td", "{td}", "--report", "{dir}"],
    ["cut", "--graph", "{graph}", "--td", "{td}", "--m", "2",
     "--report", "{dir}"],
])
def test_directory_where_a_file_belongs_exits_2(tmp_path, args):
    g = path_graph(4)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    args = [a.format(graph=gp, td=tp, dir=tmp_path, out=tmp_path / "out")
            for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["bisect", "--graph", "{graph}", "--td", "{td}", "--report", "{missing}"],
    ["cut", "--graph", "{graph}", "--td", "{td}", "--m", "2",
     "--report", "{missing}"],
    ["gen", "--family", "path", "--n", "4", "--out-graph", "{missing}",
     "--out-td", "{out}.json"],
    ["gen", "--family", "path", "--n", "4", "--out-graph", "{out}.edges",
     "--out-td", "{missing}"],
    ["bench", "--families", "path", "--sizes", "10", "--out", "{missing}"],
])
def test_output_under_a_missing_directory_exits_2(tmp_path, args):
    g = path_graph(4)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    missing = tmp_path / "no-such-dir" / "out.txt"
    args = [a.format(graph=gp, td=tp, missing=missing, out=tmp_path / "out")
            for a in args]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and str(missing) in res.output
    assert "Traceback" not in res.output
    assert not missing.parent.exists()


@pytest.mark.parametrize("args, echoed", [
    (["gen", "--family", "path", "--n", "30", "--out-graph", "{out}.edges",
      "--out-td", "{missing}"], "wrote"),
    (["bisect", "--graph", "{graph}", "--td", "{td}", "--report",
      "{missing}"], "width="),
    (["cut", "--graph", "{graph}", "--td", "{td}", "--m", "2",
      "--report", "{missing}"], "B ="),
])
def test_an_output_that_cannot_be_opened_writes_nothing(tmp_path, args,
                                                        echoed):
    """Every output is opened before any is written: a failing command
    leaves no file behind and prints nothing on stdout."""
    g = path_graph(30)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    missing = tmp_path / "no-such-dir" / "out.txt"
    args = [a.format(graph=gp, td=tp, missing=missing, out=tmp_path / "out")
            for a in args]
    before = sorted(tmp_path.iterdir())
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert echoed not in res.output
    assert sorted(tmp_path.iterdir()) == before


def test_gen_keeps_an_existing_output_when_another_cannot_be_opened(
        tmp_path):
    gp = tmp_path / "g.edges"
    gp.write_text("kept")
    res = CliRunner().invoke(main, [
        "gen", "--family", "path", "--n", "4", "--out-graph", str(gp),
        "--out-td", str(tmp_path / "no-such-dir" / "t.json")])
    assert res.exit_code == 2, res.output
    assert gp.read_text() == "kept"


def test_report_dash_still_writes_to_stdout(tmp_path):
    g = path_graph(4)
    gp, tp = _write_instance(tmp_path, g, tree_to_width1_td(g))
    res = CliRunner().invoke(main, ["bisect", "--graph", gp, "--td", tp,
                                    "--report", "-"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output[res.output.index("{"):])["m"] == 2


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("second", ["x.json", "./x.json", "sub/../x.json"])
def test_gen_refuses_one_file_for_both_outputs(tmp_path, monkeypatch,
                                               existing, second):
    """--out-graph and --out-td naming one file, however spelled, exit 2
    with an error naming it and write nothing; a file already there keeps
    its contents."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    if existing:
        (tmp_path / "x.json").write_text("kept")
    before = sorted(tmp_path.iterdir())
    res = CliRunner().invoke(main, ["gen", "--family", "path", "--n", "5",
                                    "--out-graph", "x.json",
                                    "--out-td", second])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output and second in res.output
    assert "Traceback" not in res.output
    assert sorted(tmp_path.iterdir()) == before
    if existing:
        assert (tmp_path / "x.json").read_text() == "kept"
