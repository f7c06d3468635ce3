"""Shared batched-decoding machinery for the MWPM and union-find decoders.

Per-shot decoding wastes most of its work at realistic physical error rates:
the large majority of shots produce the *empty* syndrome, and the non-empty
ones collapse to a small set of distinct fired-detector patterns.  The
:class:`BatchDecoderBase` mixin exploits that:

1. every shot's syndrome is a sorted tuple of fired detector indices (the
   *sparse syndrome*); the decoding pipeline never builds one per shot —
   :meth:`~repro.stabilizer.packed.PackedDetectorSamples.distinct_syndromes`
   hands it each chunk's distinct syndromes in first-occurrence order, and
   :meth:`BatchDecoderBase.decode_distinct` (the one decode core, also
   behind :meth:`BatchDecoderBase.decode_fired_batch`) decodes them in
   that order;
2. the empty syndrome short-circuits to "no correction";
3. distinct syndromes are decoded **once** per batch and the predictions are
   scattered back to every shot that produced them (by the pipeline's
   inverse index, or by ``decode_fired_batch`` for per-shot callers);
4. a bounded cross-batch memo (:data:`SYNDROME_MEMO_SIZE` entries, 65536;
   ``0`` disables it) lets later batches — e.g. successive waves of
   the adaptive shot scheduler — reuse earlier decodes outright; once full
   it evicts **least-recently-used** (hits refresh recency), so hot
   syndromes survive long varied sweeps while one-off patterns cycle out;
5. the memo round-trips through :meth:`BatchDecoderBase.export_memo` /
   :meth:`BatchDecoderBase.import_memo` as primitive lists, which is what
   the pipeline persists into the on-disk result cache so restarted
   workers skip re-decoding syndromes a previous process already paid for.

Subclasses implement a single method, ``_decode_fired``, mapping a canonical
syndrome to the *parity set* of flipped logical observables (a frozenset, so
predictions are hashable and memoisable).  Everything else — dense and
sparse batch entry points, the legacy one-shot ``decode``, result packing —
lives here, shared by both decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["DecodeResult", "BatchDecoderBase", "SYNDROME_MEMO_SIZE"]

#: Cross-batch syndrome-memo capacity, read when a decoder is constructed
#: (``0`` disables the memo).  Never changes results.
SYNDROME_MEMO_SIZE = 1 << 16

# A canonical (sparse) syndrome: sorted tuple of fired detector indices.
Syndrome = Tuple[int, ...]


@dataclass
class DecodeResult:
    """Batch decode outcome."""

    predicted_observables: np.ndarray   # shape (shots, num_observables), bool
    num_shots: int

    def logical_error_count(self, actual_observables: np.ndarray) -> int:
        """Number of shots where any observable prediction was wrong."""
        if actual_observables.shape != self.predicted_observables.shape:
            raise ValueError("shape mismatch between actual and predicted observables")
        wrong = np.any(actual_observables != self.predicted_observables, axis=1)
        return int(np.count_nonzero(wrong))


class BatchDecoderBase:
    """Canonicalise → deduplicate → decode once → scatter.

    Subclasses must provide ``num_observables`` (int attribute) and
    ``_decode_fired(fired: Syndrome) -> FrozenSet[int]``.
    """

    num_observables: int

    def __init__(self) -> None:
        self._syndrome_memo: dict = {}
        self._syndrome_memo_limit = SYNDROME_MEMO_SIZE
        # Lifetime counters, surfaced by the pipeline stats and benchmarks.
        self.decoded_syndromes = 0     # _decode_fired invocations
        self.memo_hits = 0             # cross-batch memo hits
        self.memo_evictions = 0        # LRU evictions once the memo is full
        self.shots_decoded = 0         # shots routed through the batch path

    @property
    def memo_size(self) -> int:
        """Distinct syndromes currently held in the cross-batch memo.

        Together with the lifetime ``memo_hits``/``memo_evictions``
        counters (surfaced per run by
        :class:`~repro.engine.pipeline.PipelineStats` and recorded in the
        BENCH decoder artifacts), this is what sizes
        :data:`SYNDROME_MEMO_SIZE`: persistent evictions with the memo
        pinned at its limit mean the working set no longer fits.
        """
        return len(self._syndrome_memo)

    # ------------------------------------------------------------------
    def export_memo(self) -> List[list]:
        """Snapshot the syndrome memo as JSON-ready ``[[det...], [obs...]]``.

        Entries come out coldest-first (dict insertion order *is* the LRU
        order), so importing them in sequence reproduces the recency
        ranking on the receiving decoder.
        """
        return [[list(key), sorted(parity)]
                for key, parity in self._syndrome_memo.items()]

    def import_memo(self, entries: Sequence[Sequence]) -> int:
        """Seed the memo from an :meth:`export_memo` snapshot; returns size.

        Imports preserve entry order (coldest first) and respect this
        decoder's own memo limit by keeping only the *hottest* tail of an
        oversized snapshot.  Malformed or empty keys
        are skipped rather than poisoning the memo; counters are untouched
        — a preloaded syndrome counts as a memo hit when it first saves a
        decode, not before.
        """
        limit = self._syndrome_memo_limit
        if limit <= 0:
            return 0
        memo = self._syndrome_memo
        for entry in list(entries)[-limit:]:
            try:
                det, obs = entry
                key = tuple(int(i) for i in det)
                parity = frozenset(int(o) for o in obs)
            except (TypeError, ValueError):
                continue
            if key:
                memo.pop(key, None)
                memo[key] = parity
        while len(memo) > limit:
            memo.pop(next(iter(memo)))
        return len(memo)

    # ------------------------------------------------------------------
    def _decode_fired(self, fired: Syndrome) -> FrozenSet[int]:
        """Decode one canonical syndrome to its observable parity set."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def decode_fired(self, fired: Sequence[int]) -> FrozenSet[int]:
        """Memoised decode of one sparse syndrome."""
        return self._decode_canonical(tuple(sorted(int(i) for i in fired)))

    def _decode_canonical(self, key: Syndrome) -> FrozenSet[int]:
        """Memoised decode of an already-canonical (sorted int tuple) syndrome."""
        if not key:
            return frozenset()
        memo = self._syndrome_memo
        hit = memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            # LRU: re-insert so dict insertion order tracks recency and
            # ``next(iter(memo))`` below is always the coldest entry.  (FIFO
            # eviction aged out hot syndromes — e.g. the handful of
            # single-detector patterns that dominate every batch — at the
            # same rate as one-off noise.)
            memo.pop(key)
            memo[key] = hit
            return hit
        parity = self._decode_fired(key)
        self.decoded_syndromes += 1
        if self._syndrome_memo_limit > 0:
            if len(memo) >= self._syndrome_memo_limit:
                memo.pop(next(iter(memo)))
                self.memo_evictions += 1
            memo[key] = parity
        return parity

    def decode_fired_batch(
        self,
        fired_lists: Sequence[Sequence[int]],
        *,
        assume_canonical: bool = False,
    ) -> List[FrozenSet[int]]:
        """Decode a batch of sparse syndromes, deduplicating within the batch.

        Each *distinct* non-empty syndrome is decoded at most once (and not
        at all when the cross-batch memo already knows it); the returned list
        scatters the predictions back into shot order.  Empty rows — the
        overwhelming majority at low physical error rates — skip
        canonicalisation entirely, and ``assume_canonical=True`` lets
        producers that already emit sorted int tuples (the packed extractor,
        :meth:`~repro.stabilizer.packed.PackedDetectorSamples.fired_detectors`)
        skip the per-shot sorted-tuple rebuild as well.
        """
        empty: FrozenSet[int] = frozenset()
        keys: List[Syndrome] = []
        for fired in fired_lists:
            if not len(fired):
                keys.append(())
            elif assume_canonical and type(fired) is tuple:
                keys.append(fired)
            else:
                keys.append(tuple(sorted(int(i) for i in fired)))
        distinct = list(dict.fromkeys(key for key in keys if key))
        parities = dict(zip(distinct, self.decode_distinct(distinct, len(keys))))
        return [parities[key] if key else empty for key in keys]

    def decode_distinct(self, syndromes: Sequence[Syndrome],
                        shots: int) -> List[FrozenSet[int]]:
        """Decode distinct non-empty canonical syndromes, in the given order.

        The one decode core behind every batch entry point: each syndrome
        goes through the memoised :meth:`_decode_canonical` exactly once, so
        memo hits, decodes, LRU recency and evictions follow ``syndromes``'
        order, and ``shots`` (the shots the batch stands for, empty ones
        included) is credited to ``shots_decoded``.
        """
        self.shots_decoded += shots
        decode = self._decode_canonical
        return [decode(key) for key in syndromes]

    # ------------------------------------------------------------------
    def _densify(self, parity: FrozenSet[int]) -> np.ndarray:
        out = np.zeros(self.num_observables, dtype=bool)
        for obs in parity:
            if obs < self.num_observables:
                out[obs] = True
        return out

    def decode(self, detector_sample: Union[Sequence[bool], np.ndarray]) -> np.ndarray:
        """Decode one dense shot; returns a boolean observable-flip vector."""
        detector_sample = np.asarray(detector_sample, dtype=bool)
        fired = tuple(int(i) for i in np.flatnonzero(detector_sample))
        return self._densify(self.decode_fired(fired))

    def decode_batch(self, detector_samples: Union[np.ndarray, Sequence]) -> DecodeResult:
        """Decode a dense ``(shots, num_detectors)`` batch through the dedup path.

        Input is coerced with ``np.asarray(..., dtype=bool)`` exactly like
        the historical per-shot API, so boolean arrays, 0/1 integer rows and
        nested Python lists all keep their old meaning.  Callers holding
        *sparse* fired-index lists (e.g. from
        :meth:`~repro.stabilizer.packed.PackedDetectorSamples.fired_detectors`)
        should use :meth:`decode_fired_batch` instead — guessing which of
        the two a ragged sequence means is inherently ambiguous.
        """
        dense = np.asarray(detector_samples, dtype=bool)
        if dense.ndim != 2:
            raise ValueError(
                "decode_batch expects a dense (shots, num_detectors) array; "
                "pass sparse fired-index lists to decode_fired_batch instead"
            )
        shots = dense.shape[0]
        parities = self.decode_fired_batch([np.flatnonzero(row) for row in dense])
        out = np.zeros((shots, self.num_observables), dtype=bool)
        for s, parity in enumerate(parities):
            for obs in parity:
                if obs < self.num_observables:
                    out[s, obs] = True
        return DecodeResult(predicted_observables=out, num_shots=shots)
