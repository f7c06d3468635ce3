"""Fused-sweep benchmark: grouped dispatch vs task-by-task.

The paper's workload is sweep-shaped — many small LER points per
(d, p, layout) grid — and a 7-task d=3/d=5 mixed sweep is exactly the
regime where per-shard dispatch overhead dominates: each task plans only
one or two shards per wave, so run task-by-task a 4-worker pool idles
while every dispatch re-pays its own round-trip.  ``run_sweep`` interleaves
the shards of *different* tasks and sends them to workers in groups
(:func:`repro.engine.executor._plan_fused_groups`), so one dispatch
advances many sweep points at once.

This benchmark times the 7-task sweep at ``workers=4`` twice, on one
default engine:

* **task-by-task**: one ``run_ler`` per task — with one task and at least
  as many free slots as shards, the planner dispatches every shard alone,
  which is the historical baseline, and
* **fused**: one ``run_sweep`` over all seven tasks.

Grouping is pure dispatch, so the results are asserted bit-identical
(cross-backend parity of mixed groups lives in ``tests/test_backends.py``).
The >= 2x wall-clock gate only fires on hosts with >= 4 CPUs: on fewer
cores both paths serialise onto the same silicon.  The measured series and
the realised grouping counters always land in ``BENCH_fused_sweep.json``.
"""

import os
import time

from repro.core.adaptation import adapt_patch
from repro.engine import Engine, EngineConfig, LerPointTask, ShotPolicy, SweepItem
from repro.engine.rng import child_stream
from repro.noise.fabrication import DefectSet
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, write_bench_json

_WORKERS = 4
_SHARD_SIZE = 512
# Seven mixed points: four d=3 and three d=5, each a fixed budget of one or
# two shards — small circuits, high task count, the regime where grouped
# dispatch pays (a d=9+ task saturates the pool on its own and gains nothing).
_POINTS = ((3, 0.004), (3, 0.008), (3, 0.014), (3, 0.020),
           (5, 0.006), (5, 0.010), (5, 0.014))
_SHOTS_PER_TASK = 1024
_GATE_SPEEDUP = 2.0


def _tasks():
    patches = {d: adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
               for d in sorted({d for d, _ in _POINTS})}
    return [LerPointTask.from_patch("memory", patches[d], p)
            for d, p in _POINTS]


def _items(tasks, seed):
    """The exact (task, policy, child seed) cells every path executes."""
    policy = ShotPolicy.fixed(_SHOTS_PER_TASK)
    return [SweepItem(task, policy, child_stream(seed, i))
            for i, task in enumerate(tasks)]


def _key(results):
    return [(r.failures, r.shots, r.num_shards, r.num_detectors,
             r.num_dem_errors) for r in results]


def test_fused_sweep_throughput(benchmark, benchmark_seed):
    engine = Engine(EngineConfig(max_workers=_WORKERS,
                                 shard_size=_SHARD_SIZE))
    tasks = _tasks()
    items = _items(tasks, benchmark_seed)
    rows = []
    measured = {}
    fusion = {}

    def run():
        # Warm the pool and every worker's task contexts so neither timed
        # path pays process spawns or circuit/DEM/decoder builds.
        engine.run_ler_many(tasks, shots=4 * _SHARD_SIZE,
                            seed=benchmark_seed + 1)

        # Fused first: residual cache warmth can only bias against it.
        start = time.perf_counter()
        fused = engine.run_sweep(items)
        t_fused = time.perf_counter() - start
        fusion.update(engine.last_fusion.payload())
        assert engine.last_fusion.fused_groups > 0, \
            "benchmark never fused (vacuous comparison)"

        taskwise, grouped = [], 0
        start = time.perf_counter()
        for it in items:
            taskwise.append(engine.run_ler(it.task, policy=it.policy,
                                           seed=it.seed))
            grouped += engine.last_fusion.fused_groups
        t_taskwise = time.perf_counter() - start
        assert grouped == 0, "task-by-task baseline grouped its shards"

        # Grouping is pure dispatch: identical numbers.
        assert _key(fused) == _key(taskwise)

        shots = sum(r.shots for r in fused)
        measured["speedup"] = t_taskwise / t_fused
        measured["shots"] = shots
        for label, seconds in (("task-by-task", t_taskwise),
                               ("fused", t_fused)):
            rate = shots / max(seconds, 1e-9)
            measured[label] = (seconds, rate)
            rows.append((label,
                         f"{shots} shots in {seconds:6.2f}s "
                         f"= {rate:8.0f} shots/s"))
        rows.append(("speedup", f"{measured['speedup']:4.2f}x "
                     f"(gate {_GATE_SPEEDUP}x on >={_WORKERS} CPUs)"))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    print_series(f"Fused sweep ({len(items)} tasks d=3/d=5, "
                 f"workers={_WORKERS})", rows)

    cpus = os.cpu_count() or 1
    gated = cpus >= _WORKERS
    write_bench_json(
        "fused_sweep",
        [{
            "label": label,
            "shots": measured["shots"],
            "seconds": measured[label][0],
            "shots_per_sec": measured[label][1],
        } for label in ("task-by-task", "fused")],
        speedup=measured["speedup"],
        fusion=fusion,
        workers=_WORKERS,
        shard_size=_SHARD_SIZE,
        tasks=len(items),
        cpu_count=cpus,
        gate={"min_speedup": _GATE_SPEEDUP, "enforced": gated},
    )

    # Grouped dispatch can only win wall-clock when the workers actually
    # have separate cores.
    if gated:
        assert measured["speedup"] >= _GATE_SPEEDUP, measured
