"""Benchmark sweeps over the instance families."""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

from .engine import exact_size_cut_linear
from .errors import BadSize
from .generators import make_instance
from .oracle import brute_force_min_bisection, tree_dp_min_bisection
from .util import check_int


@dataclass
class BenchRow:
    family: str
    n: int
    td_size: int
    t: int
    delta: int
    r: str
    width: int
    bound: float
    legible_bound: float
    steps: int
    ops: int
    seconds: float
    oracle_width: int | None = None


def _params_for(family, n):
    if family == "ternary":
        h = 1
        while (3 ** (h + 2) - 1) // 2 <= n:
            h += 1
        return {"h": h}
    if family == "grid":
        k = max(2, round(n ** 0.5))
        return {"k": k}
    if family == "spider":
        leg = max(1, (n - 1) // 3)
        return {"legs": [leg, leg, leg]}
    if family == "caterpillar":
        spine = max(1, n // 3)
        return {"spine": spine, "hairs": 2}
    return {"n": n}


def run_bench(families, sizes, seed=0, with_oracle=False):
    for n in sizes:
        check_int(BadSize, "bench size", n, 1)
    rows = []
    for family in families:
        for n in sizes:
            params = _params_for(family, n)
            params["seed"] = seed
            g, td = make_instance(family, **params)
            m = g.n // 2
            b, rep = exact_size_cut_linear(g, td, m)
            row = BenchRow(family, g.n, td.size(), rep.t, rep.delta,
                           "%d/%d" % (rep.r.numerator, rep.r.denominator),
                           rep.width, rep.bound, rep.legible_bound,
                           len(rep.steps), rep.ops, rep.seconds)
            if with_oracle:
                if g.n <= 16:
                    row.oracle_width, _ = brute_force_min_bisection(g)
                elif g.n <= 2000 and g.is_tree():
                    row.oracle_width = tree_dp_min_bisection(g)
            rows.append(row)
    return rows


def rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[f.name for f in fields(BenchRow)])
    writer.writeheader()
    for row in rows:
        writer.writerow(asdict(row))
    return buf.getvalue()


def rows_to_json(rows):
    return json.dumps([asdict(r) for r in rows], indent=2)
