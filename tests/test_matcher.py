"""Oracle and bit-identity tests for the tiered exact matcher.

The MWPM decoder solves most syndromes with a subset DP and sends only
ambiguous optima and large syndromes to networkx.  These tests hold it to
three oracles:

* on a recorded syndrome corpus (fixed seeds; d=3, d=5 and a d=5 patch
  with a faulty qubit, at p = 0.004 and 0.012), the decoder's parity equals
  the networkx path's on every syndrome, and the DP's optimum weight equals
  networkx's minimum-weight-matching weight;
* the parity-bitmask rows equal the historical per-pair predecessor walk;
* on random small problems, the DP's weight equals a brute-force
  enumeration of every matching, and any parity disagreement between
  near-optimal matchings is flagged as ambiguous.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.adaptation import adapt_patch
from repro.decoder.matching import (
    _DP_MAX_FIRED,
    _TIE_RTOL,
    MatchingGraph,
    MwpmDecoder,
    _problem,
    _Problem,
    blossom_matching,
    blossom_parity,
    subset_dp,
)
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.dem import DemError, DetectorErrorModel, build_detector_error_model
from repro.stabilizer.packed import PackedFrameSimulator
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

_PATCHES = {
    "d3": (3, DefectSet.of()),
    "d5": (5, DefectSet.of()),
    "d5_faulty_qubit": (5, DefectSet.of(qubits=[(5, 5)])),
}
_CORPUS_SHOTS = 400


def _graph(name, p):
    distance, defects = _PATCHES[name]
    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), defects)
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(p), distance)
    return MatchingGraph(build_detector_error_model(circuit)), circuit


def _corpus(name, p, seed=2024):
    graph, circuit = _graph(name, p)
    fired = PackedFrameSimulator(circuit, seed=seed).sample(_CORPUS_SHOTS).fired_detectors()
    return graph, sorted({f for f in fired if f})


def _matching_weight(problem, matching):
    weight = 0.0
    for a, b in matching:
        if a[0] == "b" and b[0] == "b":
            continue
        if a[0] == "b":
            a, b = b, a
        weight += problem.bw[a[1]] if b[0] == "b" else problem.dw[a[1]][b[1]]
    return weight


# ----------------------------------------------------------------------
# Recorded corpus: decoder vs networkx
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [0.004, 0.012])
@pytest.mark.parametrize("name", sorted(_PATCHES))
def test_corpus_matches_networkx(name, p):
    graph, syndromes = _corpus(name, p)
    assert len(syndromes) > 20
    decoder = MwpmDecoder(graph)
    for fired in syndromes:
        problem = _problem(graph, fired)
        expected = graph.parity_set(blossom_parity(problem))
        assert decoder._decode_fired(fired) == expected, fired
        if len(fired) <= _DP_MAX_FIRED:
            weight, _, _ = subset_dp(problem)
            nx_weight = _matching_weight(problem, blossom_matching(problem))
            assert math.isclose(weight, nx_weight, rel_tol=1e-9), fired
    tiers = decoder.dp_decodes + decoder.tie_fallbacks + decoder.tail_fallbacks
    assert tiers == len(syndromes)
    assert decoder.dp_decodes > 0.9 * len(syndromes)


# ----------------------------------------------------------------------
# Parity-bitmask rows vs the historical predecessor walk
# ----------------------------------------------------------------------
def _walk_parity(graph, predecessors, source, target):
    parity = set()
    node = target
    while node != source:
        prev = predecessors[node]
        if prev < 0:
            return frozenset()
        parity.symmetric_difference_update(graph.observables_on_edge(int(prev), int(node)))
        node = int(prev)
    return frozenset(parity)


def _orphan_dem():
    return DetectorErrorModel(4, 1, [
        DemError(0.1, (0,), ()),
        DemError(0.1, (0, 1), ()),
        DemError(0.1, (1,), ()),
        DemError(0.1, (2, 3), (0,)),
    ])


def _wide_observable_dem():
    # Observable 70 does not fit an int64 bitmask.
    return DetectorErrorModel(3, 71, [
        DemError(0.05, (0,), (70,)),
        DemError(0.05, (0, 1), (3,)),
        DemError(0.05, (1, 2), (70, 3)),
        DemError(0.05, (2,), ()),
    ])


@pytest.mark.parametrize("make", [
    lambda: _graph("d3", 0.008)[0],
    lambda: _graph("d5_faulty_qubit", 0.008)[0],
    lambda: MatchingGraph(_orphan_dem()),
    lambda: MatchingGraph(_wide_observable_dem()),
], ids=["d3", "d5_faulty_qubit", "orphan_component", "wide_observables"])
def test_parity_rows_equal_predecessor_walk(make):
    graph = make()
    n = graph.num_detectors + 1
    for source in range(graph.num_detectors):
        dist, predecessors = dijkstra(graph.adjacency, directed=False,
                                      indices=source, return_predecessors=True)
        row_dist, row_parity = graph.geodesic_row(source)
        assert row_dist == dist.tolist()
        for target in range(n):
            expected = _walk_parity(graph, predecessors, source, target)
            assert graph.parity_set(row_parity[target]) == expected, (source, target)
            if target > source:
                assert graph.path_parity(target, source) is graph.path_parity(source, target)


# ----------------------------------------------------------------------
# Ties and the tail
# ----------------------------------------------------------------------
def test_hand_built_tie_is_ambiguous():
    inf = math.inf
    # Detectors 0 and 1 either pair up (weight 2, flips observable 0) or
    # both go to the boundary (weight 1 + 1, flips nothing).
    problem = _Problem(bw=[1.0, 1.0], bp=[0, 0],
                       dw=[[inf, 2.0], [2.0, inf]], pp=[[0, 1], [1, 0]])
    weight, _, ambiguous = subset_dp(problem)
    assert weight == 2.0 and ambiguous
    # Same weights, same parity: a harmless tie stays on the DP.
    problem.pp = [[0, 0], [0, 0]]
    assert not subset_dp(problem)[2]
    # A clear winner is never ambiguous.
    problem.pp = [[0, 1], [1, 0]]
    problem.dw = [[inf, 1.5], [1.5, inf]]
    assert subset_dp(problem)[:3] == (1.5, 1, False)


def test_tie_routes_to_networkx():
    w = math.log(0.99 / 0.01)
    # Probability whose weight is exactly twice that of p = 0.01.
    p_pair = 0.01 ** 2 / (0.01 ** 2 + 0.99 ** 2)
    dem = DetectorErrorModel(2, 1, [
        DemError(0.01, (0,), ()),
        DemError(0.01, (1,), ()),
        DemError(p_pair, (0, 1), (0,)),
    ])
    graph = MatchingGraph(dem)
    assert math.isclose(graph.pair_distance(0, 1), 2 * w, rel_tol=1e-12)
    decoder = MwpmDecoder(graph)
    parity = decoder.decode_fired((0, 1))
    assert decoder.tie_fallbacks == 1 and decoder.dp_decodes == 0
    assert parity == graph.parity_set(blossom_parity(_problem(graph, (0, 1))))
    decoder.decode_fired((0,))
    assert decoder.dp_decodes == 1


def test_large_syndromes_go_to_networkx():
    graph, _ = _graph("d5", 0.012)
    decoder = MwpmDecoder(graph)
    fired = tuple(range(0, 2 * (_DP_MAX_FIRED + 1), 2))
    assert len(fired) > _DP_MAX_FIRED
    parity = decoder.decode_fired(fired)
    assert decoder.tail_fallbacks == 1
    assert parity == graph.parity_set(blossom_parity(_problem(graph, fired)))


def test_tier_counters_stay_out_of_the_memo():
    graph = _graph("d3", 0.008)[0]
    decoder = MwpmDecoder(graph)
    decoder.decode_fired_batch([(0, 3), (0, 3), (1,)])
    decoder.decode_fired_batch([(0, 3)])
    assert decoder.dp_decodes + decoder.tie_fallbacks == decoder.decoded_syndromes == 2
    # A memo-only decoder (all counters zero) exports the same records.
    warm = MwpmDecoder(graph)
    warm.import_memo(decoder.export_memo())
    assert warm.dp_decodes == warm.tie_fallbacks == warm.tail_fallbacks == 0
    assert warm.export_memo() == decoder.export_memo()


# ----------------------------------------------------------------------
# Random small problems vs brute force
# ----------------------------------------------------------------------
def _all_matchings(k):
    """Every way to pair some of 0..k-1 and send the rest to the boundary,
    as lists of ``(i, j)`` with ``j = None`` for a boundary match."""
    if k == 0:
        yield []
        return

    def extend(free):
        if not free:
            yield []
            return
        i, rest = free[0], free[1:]
        for tail in extend(rest):
            yield [(i, None)] + tail
        for n, j in enumerate(rest):
            for tail in extend(rest[:n] + rest[n + 1:]):
                yield [(i, j)] + tail

    yield from extend(list(range(k)))


@st.composite
def _problems(draw):
    k = draw(st.integers(1, 8))
    # Small integer weights make exact ties common; inf marks a pair with
    # no path between them.
    weight = st.sampled_from([1.0, 2.0, 3.0, 4.0, 0.5, math.inf])
    parity = st.integers(0, 3)
    bw = [draw(st.sampled_from([1.0, 2.0, 3.0, 1.5])) for _ in range(k)]
    bp = [draw(parity) for _ in range(k)]
    dw = [[math.inf] * k for _ in range(k)]
    pp = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            dw[i][j] = dw[j][i] = draw(weight)
            pp[i][j] = pp[j][i] = draw(parity)
    return _Problem(bw, bp, dw, pp)


@settings(max_examples=300, deadline=None)
@given(_problems())
def test_dp_equals_brute_force(problem):
    k = len(problem.bw)
    scored = []
    for matching in _all_matchings(k):
        weight, parity = 0.0, 0
        for i, j in matching:
            if j is None:
                weight += problem.bw[i]
                parity ^= problem.bp[i]
            else:
                weight += problem.dw[i][j]
                parity ^= problem.pp[i][j]
        scored.append((weight, parity))
    best = min(w for w, _ in scored)
    near = {p for w, p in scored if w <= best + _TIE_RTOL * sum(problem.bw)}

    weight, parity, ambiguous = subset_dp(problem)
    assert weight == pytest.approx(best, rel=1e-12)
    if len(near) > 1:
        assert ambiguous
    if not ambiguous:
        assert near == {parity}


def test_brute_force_enumerates_every_matching():
    # Telephone numbers: 1, 2, 4, 10, 26, 76 matchings of 1..6 nodes.
    assert [sum(1 for _ in _all_matchings(k)) for k in range(1, 7)] == \
        [1, 2, 4, 10, 26, 76]


def test_dp_handles_every_size_up_to_the_cutoff():
    rng = np.random.default_rng(5)
    for k in range(1, _DP_MAX_FIRED + 1):
        bw = list(rng.uniform(1.0, 5.0, k))
        dw = rng.uniform(0.5, 6.0, (k, k))
        dw = ((dw + dw.T) / 2).tolist()
        problem = _Problem(bw, [0] * k, dw, [[0] * k for _ in range(k)])
        weight, parity, ambiguous = subset_dp(problem)
        nx_weight = _matching_weight(problem, blossom_matching(problem))
        assert math.isclose(weight, nx_weight, rel_tol=1e-9), k
        assert parity == 0 and not ambiguous
