"""Sampler throughput benchmark: vectorised dispatch vs per-target baseline.

Measures sampling throughput (shots per second) for the defect-free d=5
memory circuit at p = 1e-3, comparing

* the **vectorised packed sampler** — compiled instruction program, fused
  noise draws, sparse/dense flip strategies (what every engine shard
  samples), and
* the **per-target baseline** — the frozen pre-vectorisation loop
  (:mod:`repro.stabilizer.reference`, shared with the bit-identity tests,
  so the vectorised sampler cannot accidentally accelerate its own
  yardstick).

This file rides the non-blocking benchmark CI job next to the decoder
throughput series, so the BENCH artifacts track both stages of the
pipeline.  The one hard assertion gates the vectorisation PR's acceptance
criterion at the **engine shard size** (4096 shots, the default
``REPRO_SHARD_SIZE``): that is the batch every worker shard actually
samples and the regime where per-target Python dispatch dominates.  Larger
batches are printed for the trajectory but not gated — at very large shot
counts both samplers converge on the shared RNG-generation floor, so the
ratio thins by construction, and per the flaky-benchmark sizing rule the
gate keeps a ~1.7x margin over the measured ratio at the gated batch
instead of chasing thin ratios at bigger ones.

The run also prints the pipeline's sample-vs-decode wall-clock split
(:class:`~repro.engine.pipeline.PipelineStats`), which is what made
sampling the next lever after the batched-decoding PR.
"""

import time

from repro.core.adaptation import adapt_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.engine.pipeline import DecodingPipeline
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.packed import PackedFrameSimulator
from repro.stabilizer.reference import reference_packed_sample
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, write_bench_json

_P = 1e-3
_DISTANCE = 5
# Gate at the engine's default shard size; record (don't gate) the larger
# trajectory batch.  Margin at the gate was ~2.6x measured vs 1.5x gated.
_GATE_SHOTS = 4096
_GATE_RATIO = 1.5
_TRAJECTORY_SHOTS = 32000
# Each throughput is the best of this many timed calls, so one scheduler
# stall on a shared host cannot sink either side of a ratio.
_REPEATS = 3


def _throughput(fn, shots):
    elapsed = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return shots / max(elapsed, 1e-9)


def test_sampler_throughput(benchmark, benchmark_seed):
    patch = adapt_patch(RotatedSurfaceCodeLayout(_DISTANCE), DefectSet.of())
    circuit = build_memory_circuit(patch, CircuitNoiseModel.standard(_P), _DISTANCE)
    rows = []
    series = []
    ratios = {}

    def run():
        # Warm simulator: the pipeline reuses one compiled program across
        # shards, so the steady-state cost is sampling, not compilation.
        sim = PackedFrameSimulator(circuit, seed=benchmark_seed)
        sim.sample(64)
        for shots in (_GATE_SHOTS, _TRAJECTORY_SHOTS):
            vec = _throughput(lambda: sim.reseed(benchmark_seed).sample(shots), shots)
            ref = _throughput(
                lambda: reference_packed_sample(circuit, shots, seed=benchmark_seed),
                shots)
            ratios[shots] = vec / ref
            rows.append((f"d={_DISTANCE} shots={shots}",
                         f"vectorised {vec:9.0f} shots/s, "
                         f"per-target {ref:9.0f} shots/s, "
                         f"speedup {vec / ref:5.1f}x"))
            series.append({
                "label": f"d={_DISTANCE} shots={shots}",
                "distance": _DISTANCE,
                "shots": shots,
                "vectorised_shots_per_sec": vec,
                "per_target_shots_per_sec": ref,
                "speedup": vec / ref,
            })

        # Bit-level RNG mode vs the exact double-draw stream, at both batch
        # sizes (the dedicated gate lives in test_fast_rng.py; this series
        # just keeps both modes on one trajectory artifact).
        fast = PackedFrameSimulator(circuit, seed=benchmark_seed,
                                    rng_mode="bitgen")
        fast.sample(64)
        for shots in (_GATE_SHOTS, _TRAJECTORY_SHOTS):
            exact = _throughput(lambda: sim.reseed(benchmark_seed).sample(shots),
                                shots)
            bitgen = _throughput(
                lambda: fast.reseed(benchmark_seed).sample(shots), shots)
            rows.append((f"d={_DISTANCE} shots={shots} rng",
                         f"exact {exact:9.0f} shots/s, "
                         f"bitgen {bitgen:9.0f} shots/s, "
                         f"speedup {bitgen / exact:5.1f}x"))
            series.append({
                "label": f"d={_DISTANCE} shots={shots} rng_mode",
                "distance": _DISTANCE,
                "shots": shots,
                "exact_shots_per_sec": exact,
                "bitgen_shots_per_sec": bitgen,
                "bitgen_speedup": bitgen / exact,
            })

        # Sample-vs-decode wall-clock split of one warm pipeline shard.
        dem = build_detector_error_model(circuit)
        pipeline = DecodingPipeline(circuit, MwpmDecoder(MatchingGraph(dem)))
        pipeline.run(_GATE_SHOTS, seed=benchmark_seed)  # warm decoder caches
        stats = pipeline.run(_GATE_SHOTS, seed=benchmark_seed)
        rows.append((f"pipeline split d={_DISTANCE}",
                     f"sample {stats.sample_seconds * 1e3:6.1f}ms, "
                     f"decode {stats.decode_seconds * 1e3:6.1f}ms, "
                     f"sample share {stats.sample_fraction:5.1%}"))
        series.append({
            "label": f"pipeline split d={_DISTANCE}",
            "distance": _DISTANCE,
            "shots": _GATE_SHOTS,
            "pipeline_shots_per_sec": stats.shots_per_second,
            "sample_seconds": stats.sample_seconds,
            "decode_seconds": stats.decode_seconds,
            "sample_fraction": stats.sample_fraction,
        })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Sampler throughput (p={_P})", rows)
    write_bench_json("sampler_throughput", series, physical_error_rate=_P,
                     gates={"shard_size_speedup": _GATE_RATIO})

    # Acceptance criterion of the vectorised-sampler PR: a measured speedup
    # over the frozen per-target sampler at d=5, gated at shard size.
    assert ratios[_GATE_SHOTS] >= _GATE_RATIO, ratios
