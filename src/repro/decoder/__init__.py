"""Decoder substrate: matching graphs, MWPM and union-find decoders.

In-repo replacement for PyMatching.  Both decoders share the deduplicating
batch machinery in :mod:`repro.decoder.base` and the geodesic rows
(distances and observable-parity bitmasks, one lazy Dijkstra sweep per
fired detector) that live on :class:`MatchingGraph`.

:class:`MwpmDecoder` is an exact minimum-weight matcher in tiers: a subset
DP over the fired detectors' rows solves syndromes of up to 16 fired
detectors; networkx's blossom runs only for the larger tail and for
syndromes whose optimum is tied with a matching of another parity, so
predictions are bit-identical to a blossom-only decoder.
:mod:`repro.decoder.reference` keeps the historical per-shot algorithm as
the oracle and the throughput baseline.
"""

from .base import BatchDecoderBase, DecodeResult
from .matching import MatchingGraph, MwpmDecoder
from .unionfind import UnionFindDecoder

__all__ = [
    "BatchDecoderBase",
    "DecodeResult",
    "MatchingGraph",
    "MwpmDecoder",
    "UnionFindDecoder",
]
