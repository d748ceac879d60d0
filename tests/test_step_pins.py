"""Regression pins: the step records of cuts that take non-direct steps.

Each digest is the SHA-256 (first 16 hex digits) of the repr of the list of
(kind, b_added, z_size, w_before, w_after) per step, with the weights
written as "p/q" strings. The kinds column spells the step kinds (b = back,
f = forward, d = direct). The B pins in test_cut_pins.py can stay equal
while a step picks another path node or case; these pins catch that.
"""
import hashlib

import pytest

from treecut.engine import exact_size_cut_linear
from treecut.generators import make_instance

TERNARY = [
    ({"h": 5}, 52, "b", "45cd3b13f13ea501"),
    ({"h": 5}, 121, "d", "0ba274c95fe6a4dc"),
    ({"h": 5}, 182, "b", "1d10cafd9c4dd5d6"),
    ({"h": 5}, 242, "d", "e46fd8226fb6df0d"),
    ({"h": 6}, 156, "b", "ce7fa51a9b15c962"),
    ({"h": 6}, 364, "d", "da07381b61d6261b"),
    ({"h": 6}, 546, "b", "9132ae34bf944a04"),
    ({"h": 6}, 728, "d", "33f30542ed66110b"),
    ({"h": 7}, 468, "b", "7d1d498e65ac211b"),
    ({"h": 7}, 1093, "d", "c713c4ab7dec6736"),
    ({"h": 7}, 1640, "bd", "2bdda81a06691b96"),
    ({"h": 7}, 2186, "d", "f582af43164f549a"),
]

RANDOM_TD = [
    (0, 42, "b", "33a734ef8626932e"),
    (0, 100, "d", "eb4d56d8093d31e5"),
    (0, 150, "bd", "3083632799376b52"),
    (0, 200, "d", "f1c73c28fad00dae"),
    (1, 42, "d", "b372a481a9924aad"),
    (1, 100, "bd", "b5bb0e14f9501fd3"),
    (1, 150, "d", "b758bf6317376280"),
    (1, 200, "fd", "1558b75be250d6c9"),
    (2, 42, "d", "b1c65b1b8355712c"),
    (2, 100, "d", "6dfab13fd09a2f28"),
    (2, 150, "bd", "250292ad28714b5e"),
    (2, 200, "d", "20fbb831754eb9c5"),
    (3, 42, "d", "ba0965772a2380ff"),
    (3, 100, "d", "2682b04ece407602"),
    (3, 150, "bd", "dd394802dd27d902"),
    (3, 200, "d", "16eae985127601ff"),
]

PINS = ([("ternary", p, m, k, d) for p, m, k, d in TERNARY]
        + [("random-td", {"n": 300, "width": 3, "seed": s}, m, k, d)
           for s, m, k, d in RANDOM_TD])


def _frac(w):
    return None if w is None else "%d/%d" % (w.numerator, w.denominator)


def _digest(steps):
    rec = repr([(s.kind, s.b_added, s.z_size, _frac(s.w_before),
                 _frac(s.w_after)) for s in steps])
    return hashlib.sha256(rec.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,params,m,kinds,digest", PINS)
def test_steps_are_pinned(family, params, m, kinds, digest):
    g, td = make_instance(family, **params)
    _, report = exact_size_cut_linear(g, td, m)
    assert "".join(s.kind[0] for s in report.steps) == kinds
    assert _digest(report.steps) == digest


def test_pins_cover_both_split_cases():
    kinds = "".join(k for *_, k, _ in PINS)
    assert "b" in kinds and "f" in kinds and "d" in kinds
