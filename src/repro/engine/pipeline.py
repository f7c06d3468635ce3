"""Fused sample→decode→tally pipeline: the engine's decoding hot path.

One :class:`DecodingPipeline` owns everything needed to turn (shots, seed)
into a failure count for one circuit:

* a :class:`~repro.stabilizer.packed.PackedFrameSimulator` samples the
  detector record into bit-packed rows (64 shots per ``uint64`` word — the
  frame never materialises a dense boolean matrix);
* shots stream through the decoder in fixed-size chunks
  (:data:`CHUNK_SHOTS`, 1024), and each chunk is handled at the *syndrome*
  level with whole-chunk array work — no per-shot Python.  Only the chunk's
  words are read: they are transposed into one byte-string key per shot
  (:meth:`~repro.stabilizer.packed.PackedDetectorSamples.distinct_syndromes`),
  one OR over the keys splits off the empty shots, and ``np.unique`` over
  the rest gives the chunk's distinct syndromes plus an inverse index, so
  peak decode memory is bounded by the chunk.  (Sampling itself is
  per-shard — chunked sampling would change the RNG draw order and break
  bit-identity — but the packed record is 8x smaller than boolean arrays,
  and shard size is capped by ``REPRO_SHARD_SIZE``.);
* the decoder decodes each distinct syndrome once, in order of first
  occurrence (:meth:`~repro.decoder.base.BatchDecoderBase.decode_distinct`,
  the core ``decode_fired_batch`` uses too, so memo hits, decodes, LRU
  recency and evictions match the per-shot route exactly); its
  cross-batch memo and the matching graph's geodesic cache persist inside
  the pipeline object, so successive chunks, shards and scheduler waves
  reuse warm caches;
* failures are tallied by comparing each distinct syndrome's predicted
  observable key, gathered through the inverse index, with every shot's
  actual observable key (the same byte packing, any observable count); an
  empty shot fails exactly when an observable flipped, and a predicted
  index past ``num_observables`` always counts as a mismatch.

The executor keeps one pipeline per task content hash per worker process
(:func:`repro.engine.executor._context_for`), which is what lets the
adaptive wave scheduler re-enter a warm pipeline wave after wave.

**Syndrome-memo persistence**: the decoder's cross-batch memo is the
product of real decode work — at d=5 a cold worker re-pays thousands of
Dijkstra-seeded matchings before its memo warms up.  When the executor
runs a shard for an engine with a ``cache_dir``, it binds the pipeline to
that result cache (:meth:`DecodingPipeline.attach_memo_store`); the
pipeline then saves the memo into it after runs (atomic ``ResultCache``
writes keyed by task hash + decoder name) and a fresh pipeline for the
same task imports it before its first shard, so restarted service workers
and remote socket workers skip the cold-start rebuild.  Persistence never
changes numbers — decoding is a pure function of the syndrome.

Determinism: the packed simulator draws the same RNG variates in the same
order as the unpacked one, and decoding is a pure function of each shot's
syndrome, so pipeline tallies are bit-identical to the historical
sample-then-``decode_batch`` path for any chunk size.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ..decoder.base import BatchDecoderBase
from ..stabilizer.circuit import Circuit
from ..stabilizer.packed import PackedFrameSimulator
from .cache import ResultCache
from .rng import Seed

__all__ = ["CHUNK_SHOTS", "DecodingPipeline", "PipelineStats",
           "memo_cache_key"]

#: Shots extracted and decoded per chunk: bounds peak decode memory and
#: never changes results.
CHUNK_SHOTS = 1024


def memo_cache_key(task_hash: str, decoder_name: str) -> str:
    """Cache key of the persisted syndrome memo for (task, decoder).

    Hashed so memo records share the result cache's two-level hex layout;
    the decoder name is part of the key because MWPM and union-find memos
    for one circuit hold different parities and must never alias.
    """
    body = f"syndrome_memo:{task_hash}:{decoder_name}"
    return hashlib.sha256(body.encode()).hexdigest()


def _parity_bytes(parities: Sequence[FrozenSet[int]],
                  num_observables: int) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted flips of decoded syndromes as keys, plus a mismatch flag.

    Keys are byte-major like
    :meth:`~repro.stabilizer.packed.PackedDetectorSamples.observable_bytes`
    (column ``u`` is syndrome ``u``), for any observable count.  A predicted
    index at or past ``num_observables`` can never match an actual flip, so
    its syndrome is flagged to fail on every shot — exactly what a per-shot
    parity-set comparison counts.
    """
    predicted = np.zeros((len(parities), num_observables), dtype=bool)
    unmatched = np.zeros(len(parities), dtype=bool)
    for row, parity in enumerate(parities):
        for obs in parity:
            if obs < num_observables:
                predicted[row, obs] = True
            else:
                unmatched[row] = True
    return np.packbits(predicted, axis=1, bitorder="little").T, unmatched


@dataclass(frozen=True)
class PipelineStats:
    """Tally and cache-efficiency counters of one pipeline run."""

    shots: int
    failures: int
    chunks: int
    distinct_syndromes: int     # syndromes actually decoded during this run
    memo_hits: int              # cross-chunk/cross-run syndrome memo hits
    empty_shots: int            # shots short-circuited on the empty syndrome
    sample_seconds: float = 0.0  # wall-clock spent in the packed sampler
    decode_seconds: float = 0.0  # wall-clock spent extracting/decoding/tallying
    memo_evictions: int = 0     # syndrome-memo LRU evictions during this run
    memo_size: int = 0          # memo entries held after the run

    @property
    def dedup_factor(self) -> float:
        """Shots per actually-decoded syndrome (>= 1; higher is better)."""
        return self.shots / max(self.distinct_syndromes, 1)

    @property
    def shots_per_second(self) -> float:
        """End-to-end pipeline throughput over the timed run (0 when untimed).

        This is the per-shard series the BENCH JSON artifacts record, so the
        sample+decode trajectory is diffable across PRs.
        """
        total = self.sample_seconds + self.decode_seconds
        return self.shots / total if total > 0 else 0.0

    @property
    def memo_pressure(self) -> float:
        """Evictions per decoded syndrome this run (0 when the memo fits).

        Anything persistently above ~0 means the cross-batch syndrome memo
        (:data:`~repro.decoder.base.SYNDROME_MEMO_SIZE`) is smaller than the
        working set and is churning; the BENCH decoder series records the
        raw counters so the constant can be sized from CI artifacts.
        """
        return self.memo_evictions / max(self.distinct_syndromes, 1)

    @property
    def sample_fraction(self) -> float:
        """Share of the run's wall-clock spent sampling (0 when untimed).

        With batched decoding in place, sampling is the pipeline's dominant
        cost at low physical error rates; this split is what the sampler
        benchmark tracks across PRs.
        """
        total = self.sample_seconds + self.decode_seconds
        return self.sample_seconds / total if total > 0 else 0.0


class DecodingPipeline:
    """Streams sample→decode→tally for one circuit with warm decoder caches."""

    def __init__(
        self,
        circuit: Circuit,
        decoder: BatchDecoderBase,
        *,
        chunk_shots: int = CHUNK_SHOTS,
        rng_mode: str = "exact",
    ):
        if chunk_shots <= 0:
            raise ValueError("chunk_shots must be positive")
        self.circuit = circuit
        self.decoder = decoder
        self.chunk_shots = int(chunk_shots)
        self.rng_mode = rng_mode
        # One warm simulator for the pipeline's lifetime: the compiled
        # vectorised program is reused across runs (shards, scheduler
        # waves); only the RNG stream is replaced per run.
        self._sim = PackedFrameSimulator(circuit, rng_mode=rng_mode)
        # Syndrome-memo persistence state (attach_memo_store/persist_memo).
        self._memo_store: Optional[ResultCache] = None
        self._memo_key: Optional[str] = None
        self._memo_task_hash: Optional[str] = None
        self._memo_decoder_name: Optional[str] = None
        self._memo_saved_decodes = -1
        self.preloaded_memo_entries = 0

    # ------------------------------------------------------------------
    def attach_memo_store(self, cache: ResultCache, task_hash: str,
                          decoder_name: str) -> int:
        """Bind the pipeline to a persisted-memo slot and warm up from it.

        Imports any existing snapshot into the decoder immediately (the
        count lands in ``preloaded_memo_entries``) and arms
        :meth:`persist_memo` to write back after runs.  Returns the number
        of imported entries.
        """
        self._memo_store = cache
        self._memo_task_hash = task_hash
        self._memo_decoder_name = decoder_name
        self._memo_key = memo_cache_key(task_hash, decoder_name)
        record = cache.get(self._memo_key)
        if record and record.get("kind") == "syndrome_memo":
            self.preloaded_memo_entries = self.decoder.import_memo(
                record.get("entries", []))
        self._memo_saved_decodes = self.decoder.decoded_syndromes
        return self.preloaded_memo_entries

    def persist_memo(self) -> bool:
        """Write the decoder memo back to the attached store if it grew.

        A no-op without :meth:`attach_memo_store` or when no new syndrome
        has been decoded since the last save — so the executor can call
        this after every shard without re-serialising an unchanged memo.
        """
        if self._memo_store is None:
            return False
        decoded = self.decoder.decoded_syndromes
        if decoded == self._memo_saved_decodes:
            return False
        self._memo_store.put(self._memo_key, {
            "kind": "syndrome_memo",
            "task_hash": self._memo_task_hash,
            "decoder": self._memo_decoder_name,
            "entries": self.decoder.export_memo(),
        })
        self._memo_saved_decodes = decoded
        return True

    # ------------------------------------------------------------------
    @property
    def simulator(self) -> PackedFrameSimulator:
        """The pipeline's warm simulator (compiled program reused across runs).

        Exposed for callers that time sampling apart from decoding (the
        per-layer replay in ``paperbench/``); :meth:`run` reseeds it per
        call, so borrowing it never perturbs the stream a later run draws.
        """
        return self._sim

    def run(self, shots: int, seed: Seed = None) -> PipelineStats:
        """Sample ``shots`` under ``seed``, decode in chunks, tally failures.

        Bit-identical to ``FrameSimulator(circuit, seed).sample(shots)``
        followed by ``decoder.decode_batch`` + ``logical_error_count`` — the
        chunk size changes memory traffic, never the numbers.
        """
        if shots <= 0:
            raise ValueError("shots must be positive")
        t0 = time.perf_counter()
        samples = self._sim.reseed(seed).sample(shots)
        t1 = time.perf_counter()
        decoder = self.decoder
        decoded_before = decoder.decoded_syndromes
        memo_before = decoder.memo_hits
        evictions_before = decoder.memo_evictions

        failures = 0
        empty_shots = 0
        chunks = 0
        num_observables = samples.num_observables
        for start in range(0, shots, self.chunk_shots):
            stop = min(start + self.chunk_shots, shots)
            chunk = samples.distinct_syndromes(start, stop)
            parities = decoder.decode_distinct(chunk.rows, stop - start)
            predicted, unmatched = _parity_bytes(parities, num_observables)
            actual = samples.observable_bytes(start, stop)
            # An empty syndrome predicts no flip: it fails iff one happened.
            wrong = np.bitwise_or.reduce(actual, axis=0) != 0
            nonempty, inverse = chunk.nonempty, chunk.inverse
            wrong[nonempty] = unmatched[inverse] | np.any(
                predicted[:, inverse] != actual[:, nonempty], axis=0)
            failures += int(np.count_nonzero(wrong))
            empty_shots += stop - start - nonempty.size
            chunks += 1
        t2 = time.perf_counter()

        return PipelineStats(
            shots=shots,
            failures=failures,
            chunks=chunks,
            distinct_syndromes=decoder.decoded_syndromes - decoded_before,
            memo_hits=decoder.memo_hits - memo_before,
            empty_shots=empty_shots,
            sample_seconds=t1 - t0,
            decode_seconds=t2 - t1,
            memo_evictions=decoder.memo_evictions - evictions_before,
            memo_size=decoder.memo_size,
        )
