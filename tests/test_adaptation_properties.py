"""Property tests for the neighbour-local pieces of adaptation and metrics.

Each property holds a fast local computation to a brute-force oracle:

* ``cluster_diameter`` equals the largest pairwise Chebyshev distance / 2;
* ``defect_clusters`` partitions the sites like the connected components of
  the Chebyshev <= 2 graph (networkx);
* the chain graph's single counting BFS gives the same shortest-path length
  and count as a distance BFS followed by a separate counting pass;
* the layout's check-neighbour table is symmetric and lists exactly the
  check pairs whose data supports intersect.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adapt_patch, build_chain_graph, cluster_diameter, defect_clusters
from repro.core.metrics import _BOUNDARY_A, _BOUNDARY_B, ChainGraph
from repro.noise import DefectModel, LINK_AND_QUBIT, LINK_ONLY
from repro.surface_code import RotatedSurfaceCodeLayout, StabilityLayout

_sites = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=0, max_size=40
)


def _chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@settings(max_examples=200, deadline=None)
@given(_sites)
def test_cluster_diameter_is_max_pairwise_chebyshev(sites):
    brute = max((_chebyshev(a, b) for a, b in itertools.combinations(sites, 2)), default=0)
    assert cluster_diameter(sites) == brute / 2.0


@settings(max_examples=200, deadline=None)
@given(_sites, st.integers(1, 3))
def test_defect_clusters_are_chebyshev_components(sites, max_distance):
    graph = nx.Graph()
    graph.add_nodes_from(sites)
    graph.add_edges_from(
        (a, b) for a, b in itertools.combinations(set(sites), 2)
        if _chebyshev(a, b) <= max_distance
    )
    expected = sorted(sorted(c) for c in nx.connected_components(graph))
    got = sorted(sorted(c) for c in defect_clusters(sites, max_distance))
    assert got == expected


# ----------------------------------------------------------------------
# Chain-graph BFS
# ----------------------------------------------------------------------
def _two_pass_length_and_count(graph: ChainGraph):
    """Reference: a distance BFS, then counting over nodes sorted by distance."""
    dist = {_BOUNDARY_A: 0}
    frontier = [_BOUNDARY_A]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in graph.adjacency.get(node, {}):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    if _BOUNDARY_B not in dist:
        return None, 0
    counts = {_BOUNDARY_A: 1}
    for node in sorted(dist, key=dist.get):
        if node not in counts:
            continue
        for nb, qubits in graph.adjacency.get(node, {}).items():
            if dist.get(nb) == dist[node] + 1:
                counts[nb] = counts.get(nb, 0) + counts[node] * len(qubits)
    return dist[_BOUNDARY_B], counts.get(_BOUNDARY_B, 0)


@st.composite
def _multigraphs(draw):
    nodes = [_BOUNDARY_A, _BOUNDARY_B] + [("u", i) for i in range(draw(st.integers(0, 12)))]
    adjacency = {n: {} for n in nodes}
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes), st.integers(1, 3)),
        max_size=40,
    ))
    for k, (u, v, multiplicity) in enumerate(pairs):
        if u == v:
            continue
        for m in range(multiplicity):
            qubit = (2 * k + 1, 2 * m + 1)
            adjacency[u].setdefault(v, []).append(qubit)
            adjacency[v].setdefault(u, []).append(qubit)
    return ChainGraph(adjacency=adjacency, error_type="X")


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_single_bfs_matches_two_pass_on_random_multigraphs(graph):
    assert graph.shortest_paths() == _two_pass_length_and_count(graph)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 7, 9]),
    st.sampled_from([LINK_ONLY, LINK_AND_QUBIT]),
    st.sampled_from([0.01, 0.03, 0.08]),
    st.integers(0, 2**16),
)
def test_single_bfs_matches_two_pass_on_adapted_patches(l, model, rate, seed):
    layout = RotatedSurfaceCodeLayout(l)
    patch = adapt_patch(layout, DefectModel(model, rate).sample(layout, seed))
    for error_type in ("X", "Z"):
        graph = build_chain_graph(patch, error_type)
        assert graph.shortest_paths() == _two_pass_length_and_count(graph)


# ----------------------------------------------------------------------
# Check-neighbour table
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "layout",
    [RotatedSurfaceCodeLayout(l) for l in (2, 3, 5, 8)] + [StabilityLayout(6)],
    ids=repr,
)
def test_check_neighbours_lists_exactly_the_intersecting_pairs(layout):
    table = layout.check_neighbours
    assert set(table) == {c.ancilla for c in layout.checks}
    expected = {
        frozenset((a.ancilla, b.ancilla))
        for a, b in itertools.combinations(layout.checks, 2)
        if set(a.data) & set(b.data)
    }
    listed = {frozenset((a, b)) for a, ns in table.items() for b in ns}
    assert listed == expected
    for a, ns in table.items():
        assert a not in ns
        assert list(ns) == sorted(set(ns))
        assert all(a in table[b] for b in ns)
