"""One repetition of a workload, in a fresh process with a cold worker pool.

Usage (started by ``run.py``; prints one JSON record as its last line)::

    python3 paperbench/rep.py <workload> <seed> <rep> <trace 0|1> <scratch dir>

Set-up builds the engine from the environment (``EngineConfig.from_env``),
spawns the pool with an ``Engine.starmap`` warm-up that runs no task, and
builds the workload's tasks; worker task contexts stay cold.  The timed
phase is the workload's engine call alone.  CPU time and peak RSS are read
from ``/proc`` for this process and every child (the pool workers stay
alive across the phase, so ``RUSAGE_CHILDREN`` would not see them).

With tracing on, the engine call also timestamps every wave, and afterwards
the plan is replayed serially under spans (see ``replay.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.chiplet.yield_model import yield_block_ranges  # noqa: E402
from repro.engine import Engine, EngineConfig, ResultCache  # noqa: E402

import replay as tracing  # noqa: E402
from procfs import TICKS, cpu_ticks, peak_rss_mb, process_tree, steal_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_layers(workload, engine, job, wall, scratch: Path) -> tuple:
    """Replay the plan serially under spans.

    Returns the per-layer metrics, the replayed counts of every point, each
    layer's share of the layers' total self time, and the spans.
    """
    tracer = tracing.Tracer()
    counters = {k: 0 for k in ("shots", "empty", "dem_errors", "syndromes",
                               "memo_hits", "memo_evictions", "failures",
                               "defects", "valid", "samples", "accepted")}
    metrics = {}
    replay = []
    if workload.kind == "ler":
        memo_dir = str(scratch / "replay-memo") if workload.fresh_cache else None
        for i, item in enumerate(job.items):
            replay.append(tracing.replay_ler_point(
                tracer, i, item, job.shard_size, memo_dir, counters))
    else:
        for i, (task, seed) in enumerate(job.items):
            replay.append(tracing.replay_yield_cell(tracer, i, task, seed,
                                                    counters))
    self_s = tracer.self_times()
    for name in ("circuits.build", "dem.build", "decoder.graph_build",
                 "packed.compile", "packed.sample", "packed.extract",
                 "decoder.decode", "pipeline.tally", "cache.memo_persist",
                 "fabrication.sample", "adaptation.adapt", "metrics.evaluate"):
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    # Both groups, so a layer the workload never enters reads a true zero.
    metrics.update(tracing.ler_layer_counts(counters, self_s))
    metrics.update(tracing.yield_layer_counts(counters))
    metrics["engine.slot_util"] = tracer.busy_seconds() / (
        wall * engine.parallel_slots)
    layer_total = sum(s for n, s in self_s.items()
                      if n not in tracing.STRUCTURAL)
    shares = {n: s / layer_total for n, s in sorted(self_s.items())
              if n not in tracing.STRUCTURAL}
    return metrics, replay, shares, tracer.payload()


def cache_layers(engine, job, points, config) -> dict:
    """Result-cache metrics of a cached run: size, reads, warm rerun."""
    cache = ResultCache(config.cache_dir)
    keys = list(cache.keys())
    size = sum(cache.path_for(k).stat().st_size for k in keys)
    t0 = time.perf_counter()
    for key in keys:
        if cache.get(key) is None:
            raise RuntimeError(f"cache record {key} unreadable")
    get_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    rerun = Engine(config).run_sweep(job.items)
    warm_s = time.perf_counter() - t0
    if not all(r.from_cache for r in rerun) or [
            (r.failures, r.shots) for r in rerun] != [
            (p["failures"], p["shots"]) for p in points]:
        raise RuntimeError("warm rerun was not answered from the cache")
    return {"cache.records": len(keys), "cache.bytes": size,
            "cache.get_s": get_s, "cache.warm_rerun_s": warm_s}


def main(argv) -> int:
    name, seed, rep, traced, scratch = (argv[0], int(argv[1]), int(argv[2]),
                                        argv[3] == "1", Path(argv[4]))
    workload = WORKLOADS[name]
    config = EngineConfig.from_env()
    engine = Engine(config)
    t0 = time.perf_counter()
    engine.starmap(os.getpid, [()] * config.max_workers)
    pool_start_s = time.perf_counter() - t0
    job = workload.prepare(engine, [seed, rep])

    waves = []
    on_wave = None
    if traced:
        def on_wave(update):
            waves.append(time.perf_counter())

    pids = process_tree()
    before = cpu_ticks(pids)
    steal = steal_seconds()
    t_start = time.monotonic()
    t0 = time.perf_counter()
    points = workload.execute(engine, job, on_wave=on_wave)
    wall = time.perf_counter() - t0
    pids = process_tree()
    after = cpu_ticks(pids)
    steal = steal_seconds() - steal
    record = {
        "t_start": t_start,
        "wall_s": wall,
        "cpu_s": sum(t - before.get(p, 0) for p, t in after.items()) / TICKS,
        "peak_rss_mb": peak_rss_mb(pids),
        "steal_s": steal,
        "workers": len(pids) - 1,
        "pool_start_s": pool_start_s,
        "points": points,
        "numpy": np.__version__,
    }
    if workload.kind == "ler":
        record["fusion"] = engine.last_fusion.payload()
    if traced:
        metrics, replay, shares, spans = traced_layers(
            workload, engine, job, wall, scratch)
        metrics["engine.pool_start_s"] = pool_start_s
        metrics["engine.first_wave_s"] = waves[0] - t0 if waves else wall
        metrics["engine.waves"] = len(waves)
        if workload.kind == "ler":
            fusion = engine.last_fusion
            metrics["engine.shards"] = sum(p["num_shards"] for p in points)
            metrics["engine.dispatches"] = fusion.dispatches
            metrics["engine.fused_shot_frac"] = fusion.fused_shot_fraction
        else:
            blocks = sum(len(list(yield_block_ranges(task.samples,
                                                     engine.parallel_slots)))
                         for task, _ in job.items)
            metrics["engine.shards"] = blocks
            metrics["engine.dispatches"] = blocks
            metrics["engine.fused_shot_frac"] = 0.0
        cache = {"cache.records": 0, "cache.bytes": 0, "cache.get_s": 0.0,
                 "cache.warm_rerun_s": 0.0}
        if workload.fresh_cache:
            cache = cache_layers(engine, job, points, config)
        metrics.update(cache)
        record.update(layers=metrics, replay=replay, shares=shares)
        (scratch / "spans.json").write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
