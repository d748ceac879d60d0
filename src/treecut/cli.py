"""Command line interface.

Exit codes: 0 on success, 2 when input is malformed or a stated contract is
violated, 1 on unexpected internal errors.
"""
from __future__ import annotations

import os
import sys
from fractions import Fraction

import click

from .approxcut import approximate_cut
from .bench import rows_to_csv, rows_to_json, run_bench
from .engine import exact_size_cut_linear, minimum_bisection
from .errors import InvalidDecomposition, TreecutError
from .fileio import load_graph, load_td, save_graph, save_td
from .generators import make_instance
from .graph import Graph
from . import oracle
from .treedec import validate

# a directory where a file belongs is a usage error, exit code 2
_IN_FILE = click.Path(exists=True, dir_okay=False)
_OUT_FILE = click.Path(dir_okay=False)
_REPORT_FILE = click.Path(dir_okay=False, allow_dash=True)


class _Command(click.Command):
    """A command that ends malformed input, a broken contract or a file
    that cannot be opened (say under a missing directory) with
    `error: ...` on stderr and exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (TreecutError, click.BadParameter, OSError) as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(2)


class _Group(click.Group):
    command_class = _Command


def _claim(*paths):
    """Open every output path before anything is written, so a command
    whose output cannot be opened writes nothing: an OSError propagates,
    and the files this created for the paths before it are removed
    again. A file that exists is left as it is until it is written."""
    made = []
    try:
        for path in paths:
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise


def _load_valid(graph_path, td_path):
    """Load a graph and a decomposition and refuse a decomposition that
    fails validate: the cut's width bound holds only for a valid one.
    Without a graph path, g is None and the decomposition is checked
    (vertex cover and connectivity) against the edgeless graph on 1..top,
    its largest cluster entry; a graph_n above top leaves vertex top + 1
    in no cluster, the witness the edgeless graph on 1..graph_n gives."""
    g = load_graph(graph_path) if graph_path else None
    td = load_td(td_path)
    top = td._form.top
    rep = validate(Graph(top, []) if g is None else g, td)
    if g is None and rep.vertex_cover_ok and top < td.graph_n:
        raise InvalidDecomposition("vertex %d in no cluster" % (top + 1))
    if not rep.ok:
        raise InvalidDecomposition(rep.witness)
    return g, td


def _int_list(text, option):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise click.BadParameter("%s wants comma separated integers, got %r"
                                 % (option, text)) from None


@click.group(cls=_Group)
def main():
    """Balanced cuts and minimum bisections from tree decompositions."""


@main.command()
@click.option("--family", required=True,
              type=click.Choice(["path", "star", "spider", "caterpillar",
                                 "ternary", "random-tree", "grid", "random-td"]))
@click.option("--n", type=int, default=None)
@click.option("--h", type=int, default=None, help="ternary tree height")
@click.option("--k", type=int, default=None, help="grid side length")
@click.option("--legs", default=None, help="comma separated spider leg lengths")
@click.option("--spine", type=int, default=None)
@click.option("--hairs", type=int, default=None)
@click.option("--width", type=int, default=None, help="random-td target width")
@click.option("--seed", type=int, default=0)
@click.option("--out-graph", required=True, type=_OUT_FILE)
@click.option("--out-td", required=True, type=_OUT_FILE)
def gen(family, n, h, k, legs, spine, hairs, width, seed, out_graph, out_td):
    """Generate an instance: a graph and a decomposition for it."""
    if os.path.realpath(out_graph) == os.path.realpath(out_td):
        raise click.BadParameter("--out-graph and --out-td both name %s"
                                 % out_td)
    kw = {"seed": seed}
    for key, val in (("n", n), ("h", h), ("k", k), ("spine", spine),
                     ("hairs", hairs), ("width", width)):
        if val is not None:
            kw[key] = val
    if legs is not None:
        kw["legs"] = _int_list(legs, "--legs")
    g, td = make_instance(family, **kw)
    _claim(out_graph, out_td)
    save_graph(g, out_graph)
    save_td(td, out_td)
    click.echo("wrote %s (n=%d) and %s (size=%d, width=%d)"
               % (out_graph, g.n, out_td, td.size(), td.width()))


@main.command("validate")
@click.option("--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--td", "td_path", required=True, type=_IN_FILE)
def validate_cmd(graph_path, td_path):
    """Check the decomposition properties against the graph."""
    g = load_graph(graph_path)
    td = load_td(td_path)
    rep = validate(g, td)
    click.echo("vertex cover: %s" % ("ok" if rep.vertex_cover_ok else "FAIL"))
    click.echo("edge cover:   %s" % ("ok" if rep.edge_cover_ok else "FAIL"))
    click.echo("connectivity: %s" % ("ok" if rep.connectivity_ok else "FAIL"))
    click.echo("width: %d" % rep.width)
    if not rep.ok:
        click.echo("witness: %s" % rep.witness, err=True)
        sys.exit(2)


def _print_report(rep, report_path, *lines):
    """Echo `lines`, then the cut's summary line, then write its JSON
    report to `report_path` ('-' for stdout); a report file is opened
    before anything is echoed."""
    if report_path and report_path != "-":
        _claim(report_path)
    for line in lines:
        click.echo(line)
    click.echo("n=%d m=%d width=%d bound=%.2f legible=%.2f steps=%d r=%s"
               % (rep.n, rep.m, rep.width, rep.bound, rep.legible_bound,
                  len(rep.steps), rep.r))
    if report_path:
        text = rep.to_json()
        if report_path == "-":
            click.echo(text)
        else:
            with open(report_path, "w") as fh:
                fh.write(text)


@main.command()
@click.option("--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--td", "td_path", required=True, type=_IN_FILE)
@click.option("--m", type=int, default=None, help="part size (default n//2)")
@click.option("--report", "report_path", default=None, type=_REPORT_FILE,
              help="write a JSON report here ('-' for stdout)")
def bisect(graph_path, td_path, m, report_path):
    """Minimum-bisection style cut with a provable width bound."""
    g, td = _load_valid(graph_path, td_path)
    if m is None:
        _, rep = minimum_bisection(g, td)
    else:
        _, rep = exact_size_cut_linear(g, td, m)
    _print_report(rep, report_path)


@main.command()
@click.option("--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--td", "td_path", required=True, type=_IN_FILE)
@click.option("--m", type=int, required=True)
@click.option("--report", "report_path", default=None, type=_REPORT_FILE)
def cut(graph_path, td_path, m, report_path):
    """Cut with exactly m vertices on one side."""
    g, td = _load_valid(graph_path, td_path)
    b, rep = exact_size_cut_linear(g, td, m)
    _print_report(rep, report_path, "B = %s" % " ".join(map(str, b)))


@main.command("approx-cut")
@click.option("--td", "td_path", required=True, type=_IN_FILE)
@click.option("--m", type=int, required=True)
@click.option("--c", "c_str", required=True,
              help="balance in (0,1), decimal or p/q")
@click.option("--graph", "graph_path", default=None, type=_IN_FILE)
def approx_cut_cmd(td_path, m, c_str, graph_path):
    """Cut with c*m < |B| <= m opening few clusters."""
    g, td = _load_valid(graph_path, td_path)
    try:
        c = Fraction(c_str)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter("--c wants a decimal or p/q, got %r"
                                 % c_str) from None
    res = approximate_cut(td, m, c, g=g)
    click.echo("B = %s" % " ".join(map(str, res.b_vertices)))
    click.echo("size=%d rounds=%d width=%s"
               % (len(res.b_vertices), res.rounds,
                  "-" if res.width is None else res.width))


@main.command("oracle")
@click.option("--graph", "graph_path", required=True, type=_IN_FILE)
@click.option("--m", type=int, default=None)
@click.option("--method", type=click.Choice(["auto", "brute", "tree-dp"]),
              default="auto")
def oracle_cmd(graph_path, m, method):
    """Exact minimum cut width by exhaustive search or tree DP."""
    g = load_graph(graph_path)
    if method == "tree-dp" or method == "auto" and g.n > oracle._BRUTE_LIMIT:
        width = oracle.tree_dp_min_bisection(g, m)
        click.echo("min width: %d (tree DP)" % width)
    else:
        if m is None:
            width, bset = oracle.brute_force_min_bisection(g)
        else:
            width, bset = oracle.brute_force_min_cut_size_m(g, m)
        click.echo("min width: %d" % width)
        click.echo("witness B = %s" % " ".join(map(str, sorted(bset))))


@main.command("bench")
@click.option("--families", default="path,star,spider,caterpillar,ternary,"
                                    "random-tree,grid")
@click.option("--sizes", default="100,1000")
@click.option("--seed", type=int, default=0)
@click.option("--oracle", "with_oracle", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", "out_path", default=None, type=_OUT_FILE)
def bench_cmd(families, sizes, seed, with_oracle, as_json, out_path):
    """Sweep the families and report widths, bounds and runtimes."""
    names = [f.strip() for f in families.split(",") if f.strip()]
    if not names:
        raise click.BadParameter("--families names no family, got %r"
                                 % families)
    rows = run_bench(names, _int_list(sizes, "--sizes"), seed=seed,
                     with_oracle=with_oracle)
    text = rows_to_json(rows) if as_json else rows_to_csv(rows)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        click.echo("wrote %s (%d rows)" % (out_path, len(rows)))
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
