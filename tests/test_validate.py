"""treedec.validate against the set-based reference on perturbed inputs.

validate decides edge cover with Gavril's subtree-intersection lemma while
connectivity holds and falls back to cluster sets once it fails. The
perturbations below reach every failure kind, including edge failures with
connectivity intact (the lemma's case) and with it broken (the fallback's).
"""
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from helpers import run_capped, set_validate
from treecut.generators import make_instance, path_graph, random_graph_with_td
from treecut.treedec import TreeDecomposition, validate

WITNESS_KINDS = ("foreign vertex", "in no cluster", "fits in no cluster",
                 "separate subtrees")


def witness_kind(witness):
    return [kind for kind in WITNESS_KINDS if kind in witness]


@st.composite
def perturbed_instances(draw):
    """A generated instance with vertices added to or dropped from clusters,
    the node order shuffled (so the walk starts elsewhere), and clusters
    that may reach above g.n."""
    family = draw(st.sampled_from(["random-td", "random-tree", "grid"]))
    if family == "random-td":
        g, td = random_graph_with_td(draw(st.integers(2, 25)),
                                     draw(st.integers(1, 4)),
                                     draw(st.integers(0, 10 ** 6)))
    elif family == "random-tree":
        g, td = make_instance("random-tree", n=draw(st.integers(1, 25)),
                              seed=draw(st.integers(0, 10 ** 6)))
    else:
        g, td = make_instance("grid", k=draw(st.integers(1, 5)))
    graph_n = td.graph_n + draw(st.sampled_from([0, 0, 2]))
    clusters = {i: list(td.clusters[i]) for i in td.nodes}
    for _ in range(draw(st.integers(0, 3))):
        c = clusters[draw(st.sampled_from(td.nodes))]
        if c and draw(st.booleans()):
            del c[draw(st.integers(0, len(c) - 1))]
        else:
            x = draw(st.integers(1, graph_n))
            if x not in c:
                c.insert(draw(st.integers(0, len(c))), x)
    nodes = draw(st.permutations(td.nodes))
    return g, TreeDecomposition(nodes, list(td.edges()), clusters, graph_n)


@settings(max_examples=400, deadline=None)
@given(perturbed_instances())
def test_validate_matches_set_reference(inst):
    g, td = inst
    want = set_validate(g, td)
    got = validate(g, td)
    assert (got.vertex_cover_ok, got.edge_cover_ok, got.connectivity_ok,
            got.width) == (want.vertex_cover_ok, want.edge_cover_ok,
                           want.connectivity_ok, want.width)
    assert witness_kind(got.witness) == witness_kind(want.witness)
    assert (got.witness == "") == want.ok


def test_an_entry_far_above_the_graph_is_a_foreign_vertex():
    """The stamps span the graph's order plus one slot per distinct entry
    above it, so an entry of 1e12 is reported, not allocated for: under a
    1 GiB address space limit validate returns the foreign-vertex witness
    instead of raising MemoryError."""
    assert run_capped("""
from treecut.generators import path_graph
from treecut.treedec import TreeDecomposition, validate
td = TreeDecomposition([1, 2], [(1, 2)], {1: [1, 2], 2: [2, 3, 10 ** 12]},
                       10 ** 12)
print(validate(path_graph(3), td))
""") == ("ValidityReport(vertex_cover_ok=False, edge_cover_ok=True, "
         "connectivity_ok=True, witness='cluster 2 holds foreign vertex "
         "1000000000000', width=2)\n")


@pytest.mark.parametrize("clusters, witness", [
    # 9 in nodes 1 and 3 but not 2 breaks connectivity; 7 is the least
    ({1: [1, 2, 9], 2: [2, 3, 7], 3: [3, 9]},
     "cluster 2 holds foreign vertex 7"),
    ({1: [1, 2], 2: [2, 3, 50, 40], 3: [3, 40]},
     "cluster 2 holds foreign vertex 40"),
    # vertex 3 in no cluster, edge (2, 3) in none
    ({1: [1, 2], 2: [2, 5], 3: [5, 4]}, "cluster 3 holds foreign vertex 4"),
])
def test_foreign_entries_are_named_as_given(clusters, witness):
    """Entries above the graph are numbered upward from n + 1 in their
    ascending order; the set reference, which reads them as given, agrees,
    and the witness names the least such entry as it appears in the
    clusters."""
    g = path_graph(3)
    td = TreeDecomposition([1, 2, 3], [(1, 2), (2, 3)], clusters, 50)
    got, want = validate(g, td), set_validate(g, td)
    assert (got.vertex_cover_ok, got.edge_cover_ok, got.connectivity_ok,
            got.width) == (want.vertex_cover_ok, want.edge_cover_ok,
                           want.connectivity_ok, want.width)
    assert got.witness == witness


@pytest.mark.parametrize("name, broken", [
    ("connectivity", lambda r: not r.connectivity_ok),
    ("edge cover, connectivity intact",
     lambda r: not r.edge_cover_ok and r.connectivity_ok),
    ("edge cover, connectivity broken",
     lambda r: not r.edge_cover_ok and not r.connectivity_ok),
    ("foreign vertex", lambda r: "foreign" in r.witness),
    ("uncovered vertex", lambda r: "no cluster" in r.witness),
])
def test_perturbations_reach_each_failure(name, broken):
    find(perturbed_instances(), lambda inst: broken(set_validate(*inst)),
         settings=settings(max_examples=1000, database=None,
                           phases=[Phase.generate]))
