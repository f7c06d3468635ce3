"""Minimum-weight perfect-matching decoder built on a detector error model.

This replaces PyMatching.  The decoder operates in two stages:

1. :class:`MatchingGraph` turns a graph-like :class:`DetectorErrorModel` into
   a weighted graph whose nodes are detectors plus a single virtual boundary
   node.  Each error mechanism with two detectors becomes an edge between
   them; mechanisms with one detector become edges to the boundary.  Edge
   weights are the usual log-likelihood weights ``w = log((1-p)/p)``, and each
   edge remembers which logical observables it flips.  Detectors whose
   connected component never reaches the boundary get an explicit *fallback*
   edge to it (weight :data:`_MAX_WEIGHT`), so every detector has a finite
   boundary distance and the matching and the path parities agree on what a
   boundary match means.

   The graph also owns the decoder's *geodesic rows*: the first time a
   detector fires, one Dijkstra sweep from it fills a dense row of
   distances to every node and a row of observable *parity bitmasks* (bit
   ``o`` set when the geodesic to that node flips observable ``o`` an odd
   number of times, i.e. the XOR of edge masks along the Dijkstra
   predecessor tree).  All shots, batches and both decoders share the rows.

2. :class:`MwpmDecoder` decodes *distinct* syndromes (the deduplicating batch
   machinery lives in :class:`~repro.decoder.base.BatchDecoderBase`) with a
   tiered exact matcher over the rows of the fired detectors.  Each fired
   detector is matched either to the boundary or to another fired detector,
   at minimum total geodesic weight, and the prediction is the XOR of the
   matched pairs' parity bitmasks:

   * **subset DP** (``k <=`` :data:`_DP_MAX_FIRED` fired detectors):
     ``f(S) = min(B[i] + f(S - i), min_j D[i][j] + f(S - i - j))`` where
     ``i`` is the lowest member of ``S``.  Only the ``Fib(k + 2)`` subsets
     reachable from the full set are visited.  The DP also tracks whether
     another matching within :data:`_TIE_RTOL` of the optimum has a
     different parity; such a syndrome is *ambiguous*.
   * **networkx blossom** for ambiguous optima and for ``k >``
     :data:`_DP_MAX_FIRED`: a complete graph over the fired detectors plus
     per-detector boundary surrogates, solved by
     :func:`networkx.min_weight_matching`.  It is the historical algorithm,
     so ties break exactly as they always did.

   An unambiguous DP optimum has the parity of *every* near-optimal
   matching, networkx's included, so predictions are bit-identical to the
   blossom-only decoder on every syndrome.

Decoding a batch therefore performs at most one Dijkstra sweep per distinct
fired detector and one matching per distinct syndrome.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from ..stabilizer.dem import DetectorErrorModel
from .base import BatchDecoderBase, DecodeResult

__all__ = ["MatchingGraph", "MwpmDecoder", "DecodeResult"]

_MIN_PROBABILITY = 1e-12
_MAX_WEIGHT = 60.0

#: Largest fired-detector count the subset DP solves; larger syndromes go
#: to networkx.  Chosen by measurement: on every distinct syndrome of
#: 20,000 d=3 and d=5 memory shots at p in {0.004, 0.008, 0.012}, the DP
#: is 40-120x faster per syndrome than networkx for k <= 9, 24x at k = 10,
#: 2.8x at k = 16 and break-even at k = 18 (DP states grow as
#: ``Fib(k + 2)``).
_DP_MAX_FIRED = 16
#: Two matchings whose weights differ by at most this fraction of an upper
#: bound on the optimum count as tied.  Far above float rounding (~1e-15),
#: far below any real weight gap between distinct DEM paths.
_TIE_RTOL = 1e-9


def _weight_of(p: float) -> float:
    """Log-likelihood edge weight for an error probability."""
    p = min(max(p, _MIN_PROBABILITY), 0.5 - 1e-9)
    return float(np.log((1.0 - p) / p))


@dataclass
class _Edge:
    u: int
    v: int
    weight: float
    probability: float
    observables: Tuple[int, ...]


def _observable_mask(observables: Sequence[int]) -> int:
    mask = 0
    for obs in observables:
        mask |= 1 << obs
    return mask


class MatchingGraph:
    """Weighted detector graph with a virtual boundary node.

    The boundary node has index ``num_detectors``.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.num_detectors = dem.num_detectors
        self.num_observables = dem.num_observables
        self.boundary = dem.num_detectors
        self._edges: Dict[Tuple[int, int], _Edge] = {}

        for err in dem.errors:
            if not err.detectors:
                continue
            if len(err.detectors) == 1:
                u, v = err.detectors[0], self.boundary
            elif len(err.detectors) == 2:
                u, v = err.detectors
            else:
                raise ValueError(
                    "matching graph requires a graph-like DEM; got an error "
                    f"touching {len(err.detectors)} detectors"
                )
            key = (min(u, v), max(u, v))
            candidate = _Edge(key[0], key[1], _weight_of(err.probability),
                              err.probability, err.observables)
            existing = self._edges.get(key)
            # Keep the most likely mechanism for each detector pair; parallel
            # edges with different observable masks are resolved in favour of
            # the lower weight, as PyMatching does.
            if existing is None or candidate.probability > existing.probability:
                self._edges[key] = candidate

        self._build_sparse()
        # Geodesic rows: source -> (distance list, parity-bitmask list) of
        # one Dijkstra sweep.  Lazily filled, shared by every shot and
        # batch; bounded by the graph itself (at most n rows of n entries),
        # and whole graphs are evicted by the executor's per-worker task
        # memo.  Parity bitmasks map to one interned frozenset each.
        self._rows: Dict[int, Tuple[List[float], List[int]]] = {}
        self._parity_sets: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    def _build_sparse(self) -> None:
        n = self.num_detectors + 1
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        masks: List[int] = []
        for (u, v), e in self._edges.items():
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((e.weight, e.weight))
            mask = _observable_mask(e.observables)
            masks.extend((mask, mask))
        connected_to_boundary = {u for (u, v) in self._edges if v == self.boundary}
        connected_to_boundary |= {v for (u, v) in self._edges if u == self.boundary}
        self._fallback_boundary_weight = _MAX_WEIGHT
        self._boundary_connected = connected_to_boundary

        adjacency = csr_matrix(
            (np.array(vals, dtype=float), (np.array(rows), np.array(cols))),
            shape=(n, n),
        ) if rows else csr_matrix((n, n), dtype=float)

        # Guarantee every detector can reach the boundary so matching always
        # succeeds even for detectors with no single-detector mechanism:
        # every connected component that never touches the boundary gets one
        # explicit fallback edge (weight ``_fallback_boundary_weight``) from
        # its lowest-index detector to the boundary node.  Boundary distances
        # are then finite for every detector, and the path parities traverse
        # the fallback edge like any other — the real edges on the way to
        # the component's anchor contribute their observables instead of
        # the whole correction being silently dropped.
        self._fallback_edges: frozenset = frozenset()
        if self.num_detectors > 0:
            _, labels = connected_components(adjacency, directed=False)
            boundary_label = labels[self.boundary]
            anchors: Dict[int, int] = {}
            for d in range(self.num_detectors):
                if labels[d] != boundary_label:
                    label = int(labels[d])
                    if label not in anchors or d < anchors[label]:
                        anchors[label] = d
            if anchors:
                self._fallback_edges = frozenset(anchors.values())
                for d in self._fallback_edges:
                    rows.extend((d, self.boundary))
                    cols.extend((self.boundary, d))
                    vals.extend((_MAX_WEIGHT, _MAX_WEIGHT))
                    masks.extend((0, 0))
                adjacency = csr_matrix(
                    (np.array(vals, dtype=float), (np.array(rows), np.array(cols))),
                    shape=(n, n),
                )
        self.adjacency = adjacency

        # Directed edge key ``u * n + v`` -> observable bitmask, sorted for
        # vectorised lookup of the predecessor-tree edges of each row.
        # Bitmasks beyond 62 observables fall back to Python ints.
        dtype = np.int64 if self.num_observables < 63 else object
        keys = np.array(rows, dtype=np.int64) * n + np.array(cols, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self._edge_keys = keys[order]
        self._edge_masks = np.array(masks, dtype=dtype)[order] if masks \
            else np.zeros(0, dtype=dtype)

    # ------------------------------------------------------------------
    @property
    def edges(self) -> List[_Edge]:
        return list(self._edges.values())

    def num_edges(self) -> int:
        return len(self._edges)

    def edge_between(self, u: int, v: int) -> _Edge | None:
        return self._edges.get((min(u, v), max(u, v)))

    def observables_on_edge(self, u: int, v: int) -> Tuple[int, ...]:
        edge = self.edge_between(u, v)
        return edge.observables if edge is not None else ()

    def to_networkx(self) -> nx.Graph:
        """Full detector graph as a networkx graph (used by the UF decoder)."""
        g = nx.Graph()
        g.add_nodes_from(range(self.num_detectors + 1))
        for (u, v), e in self._edges.items():
            g.add_edge(u, v, weight=e.weight, probability=e.probability,
                       observables=e.observables)
        return g

    # ------------------------------------------------------------------
    # Geodesic rows
    # ------------------------------------------------------------------
    def geodesic_row(self, source: int) -> Tuple[List[float], List[int]]:
        """Cached (distances, parity bitmasks) from ``source`` to every node.

        Unreachable nodes have distance ``inf`` and parity ``0``.
        """
        row = self._rows.get(source)
        if row is None:
            dist, predecessors = dijkstra(
                self.adjacency, directed=False, indices=source,
                return_predecessors=True,
            )
            row = (dist.tolist(), self._tree_parities(predecessors).tolist())
            self._rows[source] = row
        return row

    def _tree_parities(self, predecessors: np.ndarray) -> np.ndarray:
        """XOR of edge bitmasks from each node up its predecessor tree.

        Pointer jumping: each pass doubles the span a node's partial XOR
        covers, so a tree of depth ``h`` takes ``log2(h)`` vectorised passes.
        The root and unreachable nodes are their own parents with mask 0.
        """
        n = len(predecessors)
        keys, masks = self._edge_keys, self._edge_masks
        if not len(keys):
            return np.zeros(n, dtype=masks.dtype)
        nodes = np.arange(n)
        parent = np.where(predecessors < 0, nodes, predecessors)
        slot = np.minimum(np.searchsorted(keys, parent * n + nodes), len(keys) - 1)
        mask = np.where(parent != nodes, masks[slot], 0)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return mask
            mask = mask ^ mask[parent]
            parent = grand

    def parity_set(self, mask: int) -> FrozenSet[int]:
        """The interned frozenset of observables set in ``mask``."""
        parity = self._parity_sets.get(mask)
        if parity is None:
            parity = frozenset(o for o in range(mask.bit_length()) if mask >> o & 1)
            self._parity_sets[mask] = parity
        return parity

    def pair_distance(self, u: int, v: int) -> float:
        """Geodesic distance between two nodes (cached per source)."""
        return self.geodesic_row(u)[0][v]

    def path_parity(self, u: int, v: int) -> FrozenSet[int]:
        """Observables flipped an odd number of times along the u-v geodesic.

        Read from the row of the lower-indexed endpoint, so the result does
        not depend on argument order; the returned frozenset is interned
        per parity value.  Empty when ``v`` is unreachable from ``u``
        (callers gate on :meth:`pair_distance`).
        """
        if u > v:
            u, v = v, u
        return self.parity_set(self.geodesic_row(u)[1][v] if u != v else 0)

    def cache_stats(self) -> Dict[str, int]:
        """Sizes of the lazy caches (observability for the pipeline stats)."""
        return {
            "geodesic_sources": len(self._rows),
            "parity_sets": len(self._parity_sets),
        }


# ----------------------------------------------------------------------
# The matching problem of one syndrome
# ----------------------------------------------------------------------
@dataclass
class _Problem:
    """Fired detector ``i`` pairs with the boundary at ``bw[i]`` (parity
    ``bp[i]``) or with fired detector ``j > i`` at ``dw[i][j]`` (parity
    ``pp[i][j]``); ``inf`` marks an unreachable pair."""

    bw: List[float]
    bp: List[int]
    dw: List[List[float]]
    pp: List[List[int]]


def _problem(graph: MatchingGraph, fired: Sequence[int]) -> _Problem:
    boundary = graph.boundary
    rows = [graph.geodesic_row(d) for d in fired]
    bw: List[float] = []
    bp: List[int] = []
    dw: List[List[float]] = []
    pp: List[List[int]] = []
    for i, (dist, par) in enumerate(rows):
        w = dist[boundary]
        if math.isfinite(w):
            bw.append(w)
            bp.append(par[boundary])
        else:  # pragma: no cover - fallback edges make every B finite
            bw.append(graph._fallback_boundary_weight)
            bp.append(0)
        dw.append([dist[d] for d in fired])
        # A pair's parity comes from the lower detector's row, the
        # convention of :meth:`MatchingGraph.path_parity`.
        di = fired[i]
        pp.append([par[d] if di < d else rows[j][1][di]
                   for j, d in enumerate(fired)])
    return _Problem(bw, bp, dw, pp)


@functools.lru_cache(maxsize=_DP_MAX_FIRED + 1)
def _dp_plan(k: int) -> Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]:
    """Transition table of the subset DP over ``k`` fired detectors.

    Removing the lowest member, alone or with one partner, reaches from the
    full set exactly the subsets whose lowest member is ``low`` and which
    lack all of ``0..low-1`` plus at most ``low`` partners above ``low``
    (and the empty set): ``Fib(k + 2)`` states.  They are listed in
    increasing mask order, so every state follows the states it is built
    from.  Entry ``n`` describes state ``n + 1`` (state 0 is the empty set)
    as ``(i, rest, ((j, sub), ...))``: its lowest member ``i``, the index
    of the state without ``i``, and for each partner ``j`` the index of the
    state without ``i`` and ``j``.  Built once per ``k`` on first use.
    """
    full = (1 << k) - 1
    states = [0]
    for low in range(k):
        for count in range(low + 1):
            for partners in itertools.combinations(range(low + 1, k), count):
                removed = (1 << low) - 1
                for j in partners:
                    removed |= 1 << j
                states.append(full ^ removed)
    states.sort()
    index = {mask: n for n, mask in enumerate(states)}
    plan = []
    for mask in states[1:]:
        low = mask & -mask
        rest = mask ^ low
        subs = tuple((j, index[rest ^ (1 << j)])
                     for j in range(low.bit_length(), k) if rest >> j & 1)
        plan.append((low.bit_length() - 1, index[rest], subs))
    return tuple(plan)


def subset_dp(problem: _Problem) -> Tuple[float, int, bool]:
    """Exact minimum-weight matching by DP: ``(weight, parity, ambiguous)``.

    ``ambiguous`` is set when some matching within the tie tolerance of the
    optimum may have a different parity: a candidate within tolerance of a
    state's best with another parity, or built on an ambiguous sub-state.
    The tolerance is absolute, :data:`_TIE_RTOL` times the all-to-boundary
    weight (an upper bound on every optimum), so a clean state's parity is
    the parity of every matching of it within that tolerance.
    """
    bw, bp, dw, pp = problem.bw, problem.bp, problem.dw, problem.pp
    plan = _dp_plan(len(bw))
    eps = _TIE_RTOL * sum(bw)
    cost = [0.0]
    par = [0]
    amb = [False]
    for i, rest, subs in plan:
        best = bw[i] + cost[rest]
        bpar = bp[i] ^ par[rest]
        tied = amb[rest]
        di = dw[i]
        pi = pp[i]
        for j, sub in subs:
            c = di[j] + cost[sub]
            if c > best + eps:
                continue
            p = pi[j] ^ par[sub]
            if c < best - eps:
                best, bpar, tied = c, p, amb[sub]
            else:
                # Within tolerance of the best so far: a tie unless it
                # agrees on parity and stands on a clean sub-state.
                tied = tied or p != bpar or amb[sub]
                if c < best:
                    best, bpar = c, p
        cost.append(best)
        par.append(bpar)
        amb.append(tied)
    return cost[-1], par[-1], amb[-1]


def blossom_matching(problem: _Problem) -> set:
    """networkx minimum-weight perfect matching of one syndrome.

    Nodes are ``("d", i)`` for fired detector ``i`` and its boundary
    surrogate ``("b", i)``; surrogates are mutually connected with zero
    weight so that unmatched-to-boundary pairings are free.  Edges go in
    the historical order, which fixes how networkx breaks ties.
    """
    bw, dw = problem.bw, problem.dw
    k = len(bw)
    g = nx.Graph()
    for i in range(k):
        di = dw[i]
        for j in range(i + 1, k):
            w = di[j]
            if math.isfinite(w):
                g.add_edge(("d", i), ("d", j), weight=w)
        g.add_edge(("d", i), ("b", i), weight=bw[i])
        for j in range(i):
            g.add_edge(("b", i), ("b", j), weight=0.0)
    if k == 1:
        g.add_node(("b", 0))
    return nx.min_weight_matching(g)


def blossom_parity(problem: _Problem) -> int:
    """Parity bitmask of the networkx matching (see :func:`blossom_matching`)."""
    parity = 0
    for a, b in blossom_matching(problem):
        if a[0] == "b" and b[0] == "b":
            continue
        if a[0] == "b":
            a, b = b, a
        if b[0] == "b":
            parity ^= problem.bp[a[1]]
        else:
            i, j = sorted((a[1], b[1]))
            parity ^= problem.pp[i][j]
    return parity


class MwpmDecoder(BatchDecoderBase):
    """Exact minimum-weight perfect-matching decoder.

    ``decode`` / ``decode_batch`` (inherited from
    :class:`~repro.decoder.base.BatchDecoderBase`) canonicalise and
    deduplicate syndromes; only *distinct* syndromes reach the tiered
    matcher below, which in turn only pays Dijkstra for detectors it has
    not seen before (the rows live in the shared :class:`MatchingGraph`).
    """

    def __init__(self, graph: MatchingGraph | DetectorErrorModel):
        super().__init__()
        if isinstance(graph, DetectorErrorModel):
            graph = MatchingGraph(graph)
        self.graph = graph
        self.num_observables = graph.num_observables
        # Lifetime matcher-tier counters (one per _decode_fired call).
        self.dp_decodes = 0        # solved by the subset DP
        self.tie_fallbacks = 0     # DP optimum ambiguous -> networkx
        self.tail_fallbacks = 0    # more than _DP_MAX_FIRED fired -> networkx

    # ------------------------------------------------------------------
    def _decode_fired(self, fired: Tuple[int, ...]) -> FrozenSet[int]:
        """Match one distinct syndrome and XOR the matched path parities."""
        problem = _problem(self.graph, fired)
        if len(fired) <= _DP_MAX_FIRED:
            _, parity, ambiguous = subset_dp(problem)
            if not ambiguous:
                self.dp_decodes += 1
                return self.graph.parity_set(parity)
            self.tie_fallbacks += 1
        else:
            self.tail_fallbacks += 1
        return self.graph.parity_set(blossom_parity(problem))
