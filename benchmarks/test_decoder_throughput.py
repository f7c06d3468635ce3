"""Decoder throughput benchmark: batched pipeline vs per-shot baseline.

Measures decode throughput (shots per second) for defect-free d=3 and d=5
memory circuits at p = 1e-3, for both decoders, comparing

* the **batched pipeline path** — sparse syndrome extraction plus the
  deduplicating ``decode_fired_batch`` (what every engine shard runs), and
* the **per-shot baseline** — the historical algorithm that pays a fresh
  Dijkstra sweep and a fresh matching-graph build for every single shot
  (the frozen copy in :mod:`repro.decoder.reference`, shared with the
  bit-identity property tests, so the refactored decoder cannot
  accidentally accelerate its own baseline).

A second series, ``extract_tally``, times the post-sample work of one
4096-shot shard (extract + decode + tally) at the sub-threshold point
p = 5e-4, d=3 and d=5, MWPM: :meth:`DecodingPipeline.run`'s syndrome-level
chunk path (``PipelineStats.decode_seconds``) against the per-shot route
(``fired_detectors`` + ``decode_fired_batch`` + a parity-set comparison per
shot) on the same samples with an equally warm memo.  Counts must be
equal; the pipeline must be >= 2x faster at d=3, where ~90% of shots are
empty and per-shot Python dominated.

This file rides the non-blocking benchmark CI job, so the shots/sec
trajectory of future changes is recorded in the BENCH artifacts.  The hard
assertions: at d=5, p=1e-3, the batched MWPM path must deliver >= 5x the
per-shot baseline throughput (the margin in practice is far larger — most
shots dedup away), and the extract+tally gate above.
"""

import statistics
import time

from repro.core.adaptation import adapt_patch
from repro.decoder import MatchingGraph, MwpmDecoder, UnionFindDecoder
from repro.decoder.base import SYNDROME_MEMO_SIZE
from repro.decoder.reference import reference_mwpm_decode
from repro.engine import DecodingPipeline
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.packed import PackedFrameSimulator
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, write_bench_json

_P = 1e-3
# Engine-realistic batch sizes (shards at low p run tens of thousands of
# shots); the per-shot baseline is timed on a subsample of the same
# detector data and reported as shots/sec, which is fair because its cost
# is linear in shots while the batched path amortises across the batch.
# The d=5 batch is sized so the >=5x ratio gate keeps a wide margin under
# host load: the dedup factor grows with batch size, so when this gate
# runs thin the fix is to raise _SHOTS[5], never to lower the gate (one
# transient sub-5x reading was observed at 32000 under load).
_SHOTS = {3: 8000, 5: 64000}
_BASELINE_SHOTS = 2000


# The frozen per-shot baseline lives in repro.decoder.reference so the
# bit-identity property tests and this perf baseline measure the exact same
# historical algorithm.
def _throughput(fn, shots):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return shots / max(elapsed, 1e-9)


def _circuit_and_detectors(distance, seed):
    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(_P), distance)
    shots = _SHOTS[distance]
    samples = PackedFrameSimulator(circuit, seed=seed).sample(shots)
    return circuit, samples, shots


def test_decoder_throughput(benchmark, benchmark_seed):
    rows = []
    series = []
    speedups = {}

    def run():
        for distance in (3, 5):
            circuit, samples, shots = _circuit_and_detectors(distance, benchmark_seed)
            dem = build_detector_error_model(circuit)
            dense = samples.detectors
            fired = samples.fired_detectors()

            for name, make in (("mwpm", MwpmDecoder), ("unionfind", UnionFindDecoder)):
                graph = MatchingGraph(dem)
                decoder = make(graph)
                batched = _throughput(
                    lambda: decoder.decode_fired_batch(fired), shots)
                # Syndrome-memo health of the batched run: hits/evictions/
                # final size land in the BENCH artifact so
                # SYNDROME_MEMO_SIZE can be tuned from CI data (steady
                # evictions at a pinned memo size mean the working set of
                # distinct syndromes no longer fits).
                memo = {
                    "distinct_syndromes": decoder.decoded_syndromes,
                    "memo_hits": decoder.memo_hits,
                    "memo_evictions": decoder.memo_evictions,
                    "memo_size": decoder.memo_size,
                }
                # Which matcher tier solved each distinct syndrome (subset
                # DP, networkx on a tie, networkx for the large-k tail).
                if name == "mwpm":
                    memo.update(dp_decodes=decoder.dp_decodes,
                                tie_fallbacks=decoder.tie_fallbacks,
                                tail_fallbacks=decoder.tail_fallbacks)

                base_shots = min(shots, _BASELINE_SHOTS)
                if name == "mwpm":
                    base_graph = MatchingGraph(dem)
                    baseline = _throughput(
                        lambda: [reference_mwpm_decode(base_graph, dense[s])
                                 for s in range(base_shots)],
                        base_shots)
                else:
                    base = make(MatchingGraph(dem))
                    baseline = _throughput(
                        lambda: [base._decode_fired(f) if f else frozenset()
                                 for f in fired[:base_shots]],
                        base_shots)

                speedup = batched / baseline
                speedups[(distance, name)] = speedup
                rows.append((f"d={distance} {name}",
                             f"batched {batched:9.0f} shots/s, "
                             f"per-shot {baseline:8.0f} shots/s, "
                             f"speedup {speedup:6.1f}x, "
                             f"memo {memo['memo_hits']} hits / "
                             f"{memo['memo_evictions']} evictions"))
                series.append({
                    "label": f"d={distance} {name}",
                    "distance": distance,
                    "decoder": name,
                    "shots": shots,
                    "batched_shots_per_sec": batched,
                    "per_shot_shots_per_sec": baseline,
                    "speedup": speedup,
                    **memo,
                })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Decoder throughput (p={_P})", rows)
    write_bench_json("decoder_throughput", series, physical_error_rate=_P,
                     gates={"d3_mwpm": 5.0, "d5_mwpm": 5.0,
                            "d5_unionfind": 2.0},
                     syndrome_memo_size=SYNDROME_MEMO_SIZE)

    # Acceptance criterion of the batched-decoding PR: >= 5x at p=1e-3.
    assert speedups[(3, "mwpm")] >= 5.0, speedups
    assert speedups[(5, "mwpm")] >= 5.0, speedups
    # The UF dedup path must also win clearly at low p.
    assert speedups[(5, "unionfind")] >= 2.0, speedups


_TALLY_P = 5e-4
_TALLY_SHARD = 4096
_TALLY_SHARDS = 12


def _per_shot_route(samples, decoder, chunk_shots):
    """Extract per-shot tuples, batch-decode, compare parity sets per shot."""
    failures = empty = 0
    for start in range(0, samples.num_shots, chunk_shots):
        stop = min(start + chunk_shots, samples.num_shots)
        fired = samples.fired_detectors(start, stop)
        actual = samples.flipped_observables(start, stop)
        predictions = decoder.decode_fired_batch(fired, assume_canonical=True)
        for syndrome, parity, flips in zip(fired, predictions, actual):
            empty += not syndrome
            failures += bool(parity.symmetric_difference(flips))
    return failures, empty


def test_extract_tally_throughput(benchmark, benchmark_seed):
    rows = []
    series = []
    speedups = {}

    def run():
        for distance in (3, 5):
            patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
            circuit = build_memory_circuit(
                patch, CircuitNoiseModel.standard(_TALLY_P), distance)
            dem = build_detector_error_model(circuit)
            pipeline = DecodingPipeline(circuit, MwpmDecoder(dem))
            reference = MwpmDecoder(dem)
            sim = PackedFrameSimulator(circuit)
            pipeline_s, route_s = [], []
            for shard in range(_TALLY_SHARDS):
                seed = benchmark_seed + shard
                stats = pipeline.run(_TALLY_SHARD, seed)
                samples = sim.reseed(seed).sample(_TALLY_SHARD)
                start = time.perf_counter()
                counts = _per_shot_route(samples, reference,
                                         pipeline.chunk_shots)
                route_s.append(time.perf_counter() - start)
                pipeline_s.append(stats.decode_seconds)
                assert (stats.failures, stats.empty_shots) == counts
            assert pipeline.decoder.export_memo() == reference.export_memo()
            pipe_ms = 1e3 * statistics.median(pipeline_s)
            route_ms = 1e3 * statistics.median(route_s)
            speedup = route_ms / max(pipe_ms, 1e-9)
            speedups[distance] = speedup
            rows.append((f"d={distance} mwpm",
                         f"pipeline {pipe_ms:7.2f} ms/shard, "
                         f"per-shot route {route_ms:7.2f} ms/shard, "
                         f"speedup {speedup:5.1f}x"))
            series.append({
                "label": f"d={distance} mwpm",
                "distance": distance,
                "decoder": "mwpm",
                "shard_shots": _TALLY_SHARD,
                "shards": _TALLY_SHARDS,
                "pipeline_ms_per_shard": pipe_ms,
                "per_shot_route_ms_per_shard": route_ms,
                "speedup": speedup,
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Extract+decode+tally per shard (p={_TALLY_P})", rows)
    write_bench_json("extract_tally", series, physical_error_rate=_TALLY_P,
                     gates={"d3_mwpm": 2.0})
    assert speedups[3] >= 2.0, speedups
