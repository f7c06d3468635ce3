"""Serial traced replay: per-layer spans around the program's public calls.

The traced run replays every shard of the engine's plan in one process,
with the same seeds the executor binds (child stream ``i`` of the item
seed, or the raw seed for a single-shard fixed run; yield sample ``i``
draws child stream ``i`` of the cell seed), and wraps each public call in a
span.  Spans live in memory and are written out when the run ends; a
layer's self time is its spans' durations minus the time their child spans
cover.  The replay's failure and acceptance counts must equal the engine's,
or the per-layer split would not describe the work ``wall_s`` measured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.core.adaptation import adapt_patch
from repro.core.metrics import evaluate_patch
from repro.decoder.matching import MatchingGraph, MwpmDecoder
from repro.decoder.unionfind import UnionFindDecoder
from repro.engine import DecodingPipeline, ResultCache, ShotScheduler
from repro.engine.rng import as_seed_sequence, child_stream, from_fingerprint, seed_fingerprint
from repro.stabilizer.dem import build_detector_error_model

#: Spans that mark structure (a point, a shard, a chiplet), not a layer.
STRUCTURAL = ("point", "shard", "chiplet")


class Tracer:
    """In-memory span recorder: (trace id, span id, parent, name, start, end)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: int):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [trace_id, span_id, parent, name, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus what its children cover."""
        child_time = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (_, sid, _, name, start, end) in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child_time[sid]
        return out

    def busy_seconds(self) -> float:
        """Total duration of the top-level spans (the serial work)."""
        return sum(end - start for _, _, parent, _, start, end in self.spans
                   if parent < 0)

    def payload(self) -> List[dict]:
        return [{"trace": t, "span": s, "parent": p, "name": n,
                 "start": a, "end": b} for t, s, p, n, a, b in self.spans]


# ----------------------------------------------------------------------
# LER points
# ----------------------------------------------------------------------
def replay_ler_point(tracer: Tracer, trace_id: int, item, shard_size: int,
                     memo_dir: Optional[str], counters: Dict[str, float]) -> dict:
    """Replay one sweep item shard by shard; returns its merged counts."""
    task, policy = item.task, item.policy
    span = tracer.span
    with span("point", trace_id):
        with span("circuits.build", trace_id):
            circuit = task.build_circuit()
        with span("dem.build", trace_id):
            dem = build_detector_error_model(circuit)
        with span("decoder.graph_build", trace_id):
            graph = MatchingGraph(dem)
            decoder = (MwpmDecoder(graph) if task.decoder == "mwpm"
                       else UnionFindDecoder(graph))
        with span("packed.compile", trace_id):
            pipeline = DecodingPipeline(circuit, decoder, rng_mode=task.rng_mode)
            sim = pipeline.simulator
            sim.reseed(0).sample(1)  # compile the program outside sample_s
        if memo_dir is not None:
            pipeline.attach_memo_store(ResultCache(memo_dir),
                                       task.content_hash(), task.decoder)
        sched = ShotScheduler(policy, shard_size)
        single = not policy.is_adaptive and policy.max_shots <= shard_size
        root = as_seed_sequence(item.seed)
        chunk = pipeline.chunk_shots
        num_shards = empty = 0
        while True:
            wave = sched.next_wave()
            if not wave:
                break
            wave_failures = 0
            for index, shots in wave:
                seed = item.seed if single else child_stream(root, index)
                with span("shard", trace_id):
                    with span("packed.sample", trace_id):
                        samples = sim.reseed(seed).sample(shots)
                    for start in range(0, shots, chunk):
                        stop = min(start + chunk, shots)
                        with span("packed.extract", trace_id):
                            fired = samples.fired_detectors(start, stop)
                            actual = samples.flipped_observables(start, stop)
                        with span("decoder.decode", trace_id):
                            predictions = decoder.decode_fired_batch(
                                fired, assume_canonical=True)
                        with span("pipeline.tally", trace_id):
                            for syndrome, parity, flips in zip(
                                    fired, predictions, actual):
                                if not syndrome:
                                    empty += 1
                                if parity.symmetric_difference(flips):
                                    wave_failures += 1
                    if memo_dir is not None:
                        with span("cache.memo_persist", trace_id):
                            pipeline.persist_memo()
                num_shards += 1
            sched.record(wave_failures, sum(n for _, n in wave))
    counters["shots"] += sched.shots_done
    counters["empty"] += empty
    counters["dem_errors"] += len(dem)
    counters["syndromes"] += decoder.decoded_syndromes
    counters["memo_hits"] += decoder.memo_hits
    counters["memo_evictions"] += decoder.memo_evictions
    counters["failures"] += sched.failures
    counters.setdefault("k", []).extend(len(key) for key, _ in
                                        decoder.export_memo())
    return {"failures": sched.failures, "shots": sched.shots_done,
            "num_shards": num_shards}


def ler_layer_counts(counters: Dict[str, float], self_s: Dict[str, float]) -> Dict[str, float]:
    k = np.array(counters.get("k") or [0])
    decode_s = self_s.get("decoder.decode", 0.0)
    sample_s = self_s.get("packed.sample", 0.0)
    lookups = counters["syndromes"] + counters["memo_hits"]
    return {
        "dem.errors": counters["dem_errors"],
        "packed.shots_per_s": counters["shots"] / sample_s if sample_s else 0.0,
        "packed.empty_frac": counters["empty"] / max(counters["shots"], 1),
        "decoder.syndromes": counters["syndromes"],
        "decoder.us_per_syndrome":
            1e6 * decode_s / max(counters["syndromes"], 1),
        "decoder.memo_hit_frac": counters["memo_hits"] / max(lookups, 1),
        "decoder.memo_evictions": counters["memo_evictions"],
        "decoder.k_p50": float(np.percentile(k, 50)),
        "decoder.k_p99": float(np.percentile(k, 99)),
        "decoder.k_max": float(k.max()),
        "decoder.k_le7_frac": float(np.mean(k <= 7)),
        "pipeline.failures": counters["failures"],
    }


# ----------------------------------------------------------------------
# Yield cells
# ----------------------------------------------------------------------
def replay_yield_cell(tracer: Tracer, trace_id: int, task, seed,
                      counters: Dict[str, float]) -> dict:
    """Replay one yield cell sample by sample; returns its merged counts."""
    span = tracer.span
    layout, model = task.layout(), task.defect_model()
    criterion = task.criterion()
    boundary = task.boundary_standard()
    root = from_fingerprint(seed_fingerprint(seed))
    accepted = 0
    distances: Dict[str, int] = {}
    with span("point", trace_id):
        for index in range(task.samples):
            with span("chiplet", trace_id):
                rng = np.random.default_rng(child_stream(root, index))
                with span("fabrication.sample", trace_id):
                    defects = model.sample(layout, rng)
                with span("adaptation.adapt", trace_id):
                    patch = adapt_patch(layout, defects)
                with span("metrics.evaluate", trace_id):
                    metrics = evaluate_patch(patch)
                with span("postselection.accept", trace_id):
                    ok = criterion.accepts(metrics)
                    if ok and boundary is not None:
                        ok = boundary.accepts(patch)
            accepted += ok
            key = str(metrics.distance)
            distances[key] = distances.get(key, 0) + 1
            counters["defects"] += (defects.num_faulty_qubits
                                    + defects.num_faulty_links)
            counters["valid"] += patch.valid
    counters["samples"] += task.samples
    counters["accepted"] += accepted
    return {"accepted": accepted,
            "distance_counts": dict(sorted(distances.items()))}


def yield_layer_counts(counters: Dict[str, float]) -> Dict[str, float]:
    samples = max(counters["samples"], 1)
    return {
        "adaptation.defects_per_chiplet": counters["defects"] / samples,
        "adaptation.valid_frac": counters["valid"] / samples,
        "postselection.accept_frac": counters["accepted"] / samples,
    }
