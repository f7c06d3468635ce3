"""The three paper workloads, their inputs and their correctness checks.

Each workload is a call into the public ``repro.engine`` API that a user
makes to regenerate a figure of the paper:

``ler_sweep``
    Fig. 6-shaped LER curves: defect-free d=3 and d=5 patches plus one
    valid defective d=5 patch (link+qubit defects at 2%, adapted with
    super-stabilizers), each at p in {0.004, 0.008, 0.012}, run to a stated
    accuracy with an adaptive shot policy through ``Engine.run_sweep``.
    Decode-bound: many small shards and waves, so it stresses the matcher,
    dispatch/fusion and cache writes (``REPRO_CACHE`` is a fresh directory).
``ler_lowp``
    The sub-threshold operating point (~0.1%): d=3 at p in {0.0005, 0.001}
    and d=5 at p=0.0005 with large fixed budgets and no cache.  Most shots
    have empty syndromes or hit the syndrome memo, so sampling and
    fired-detector extraction carry a large share of the time.
``yield_sweep``
    The chiplet-yield grid of Figs. 12/13 at target distance 9: chiplet size
    {9, 11, 13} x defect rate {0.005, 0.01, 0.02} x {link_only,
    link_and_qubit}, one ``Engine.run_yield`` per cell.  No circuit and no
    decoding: adaptation and patch metrics carry the time, so a decoder or
    sampler change must leave it unmoved.

A run repeats its workload; repetition ``r`` of seed ``s`` draws every
Monte-Carlo stream from the root seed ``[s, r]`` (point ``i`` uses child
stream ``i``), so the same seed always gives the same inputs.  The defective
patch is part of the workload definition: it is searched with a fixed seed,
so every run sweeps the same three patches and only the sampling varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import wilson_interval
from repro.core.adaptation import adapt_patch
from repro.engine import (
    Engine,
    LerPointTask,
    PatchSampleTask,
    ShotPolicy,
    ShotScheduler,
    SweepItem,
    YieldTask,
    child_stream,
)
from repro.noise.fabrication import LINK_AND_QUBIT, LINK_ONLY, DefectSet
from repro.surface_code.layout import RotatedSurfaceCodeLayout

#: Seed of the defective-patch search (part of the workload definition).
PATCH_SEARCH_SEED = 0

LER_SWEEP_RATES = (0.004, 0.008, 0.012)
LER_SWEEP_POLICY = ShotPolicy.adaptive(16384, min_shots=512, target_failures=50)
LER_SWEEP_SHARD = 512

LER_LOWP_POINTS = (("d3", 0.0005), ("d3", 0.001), ("d5", 0.0005))
LER_LOWP_SHOTS = 196608
LER_LOWP_SHARD = 4096  # the engine's default shard size

YIELD_SIZES = (9, 11, 13)
YIELD_RATES = (0.005, 0.01, 0.02)
YIELD_MODELS = (LINK_ONLY, LINK_AND_QUBIT)
YIELD_TARGET_DISTANCE = 9
YIELD_SAMPLES = 24


@dataclass
class Job:
    """The inputs of one repetition: labelled points and what runs them."""

    labels: List[dict]           # one description per point or cell
    items: list                  # SweepItem per LER point, (YieldTask, seed) per cell
    shard_size: int = 0


# ----------------------------------------------------------------------
# Input construction
# ----------------------------------------------------------------------
def _defect_free(size: int):
    return adapt_patch(RotatedSurfaceCodeLayout(size), DefectSet.of())


def defective_d5_patch(engine: Engine):
    """First patch of the pinned search with faulty qubits and super-stabilizers."""
    task = PatchSampleTask(size=5, defect_model_kind=LINK_AND_QUBIT,
                           defect_rate=0.02, num_patches=4, min_distance=3)
    for patch in engine.sample_patches(task, seed=PATCH_SEARCH_SEED):
        if patch.defects.faulty_qubits and patch.super_stabilizers:
            return patch
    raise RuntimeError("defective-patch search found no patch with "
                       "super-stabilizers")


def _ler_job(points, policy: ShotPolicy, shard_size: int, root) -> Job:
    labels, items = [], []
    for i, (name, patch, d, p) in enumerate(points):
        labels.append({"patch": name, "d": d, "p": p})
        items.append(SweepItem(LerPointTask.from_patch("memory", patch, p),
                               policy, child_stream(root, i)))
    return Job(labels=labels, items=items, shard_size=shard_size)


def prepare_ler_sweep(engine: Engine, root) -> Job:
    patches = (("d3", _defect_free(3), 3), ("d5", _defect_free(5), 5),
               ("d5_defective", defective_d5_patch(engine), 5))
    points = [(name, patch, d, p) for name, patch, d in patches
              for p in LER_SWEEP_RATES]
    return _ler_job(points, LER_SWEEP_POLICY, LER_SWEEP_SHARD, root)


def prepare_ler_lowp(engine: Engine, root) -> Job:
    patches = {"d3": _defect_free(3), "d5": _defect_free(5)}
    points = [(name, patches[name], int(name[1:]), p)
              for name, p in LER_LOWP_POINTS]
    return _ler_job(points, ShotPolicy.fixed(LER_LOWP_SHOTS), LER_LOWP_SHARD,
                    root)


def prepare_yield_sweep(engine: Engine, root) -> Job:
    labels, items = [], []
    cells = [(size, model, rate) for size in YIELD_SIZES
             for model in YIELD_MODELS for rate in YIELD_RATES]
    for i, (size, model, rate) in enumerate(cells):
        labels.append({"size": size, "model": model, "rate": rate})
        task = YieldTask(chiplet_size=size, defect_model_kind=model,
                         defect_rate=rate, samples=YIELD_SAMPLES,
                         criterion_kind="distance",
                         target_distance=YIELD_TARGET_DISTANCE)
        items.append((task, child_stream(root, i)))
    return Job(labels=labels, items=items)


# ----------------------------------------------------------------------
# Execution (the timed phase)
# ----------------------------------------------------------------------
def execute_ler(engine: Engine, job: Job, on_wave=None) -> List[dict]:
    results = engine.run_sweep(job.items, on_wave=on_wave)
    return [dict(label, failures=r.failures, shots=r.shots,
                 num_shards=r.num_shards, detectors=r.num_detectors,
                 dem_errors=r.num_dem_errors)
            for label, r in zip(job.labels, results)]


def execute_yield(engine: Engine, job: Job, on_wave=None) -> List[dict]:
    out = []
    for index, (label, (task, seed)) in enumerate(zip(job.labels, job.items)):
        result = engine.run_yield(task, seed=seed)
        if on_wave is not None:
            on_wave(index)
        out.append(dict(label, samples=result.samples,
                        accepted=result.accepted,
                        distance_counts={str(d): c for d, c in
                                         sorted(result.distance_counts.items())}))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                         # "ler" or "yield"
    env: Dict[str, str]               # REPRO_* variables besides REPRO_WORKERS
    fresh_cache: bool                 # REPRO_CACHE set to a fresh directory
    prepare: Callable[[Engine, object], Job]
    execute: Callable[..., List[dict]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ler_sweep", "ler", {"REPRO_SHARD_SIZE": str(LER_SWEEP_SHARD)}, True,
             prepare_ler_sweep, execute_ler),
    Workload("ler_lowp", "ler", {}, False, prepare_ler_lowp, execute_ler),
    Workload("yield_sweep", "yield", {}, False, prepare_yield_sweep, execute_yield),
)}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _plan_totals(policy: ShotPolicy, shard_size: int) -> Dict[int, int]:
    """Cumulative shots after each possible wave -> shards planned so far."""
    sched = ShotScheduler(policy, shard_size)
    totals, shards = {}, 0
    while True:
        wave = sched.next_wave()
        if not wave:
            return totals
        shards += len(wave)
        sched.record(0, sum(n for _, n in wave))
        totals[sched.shots_done] = shards


def _disjoint_above(low_est, high_est) -> bool:
    """True when estimate ``low_est`` lies significantly above ``high_est``.

    Both are (successes, trials) pairs; significance is non-overlap of
    their 95% Wilson intervals.
    """
    lo_a, _ = wilson_interval(*low_est)
    _, hi_b = wilson_interval(*high_est)
    return lo_a > hi_b


def check_ler(points: Sequence[dict], policy: ShotPolicy,
              shard_size: int) -> Dict[int, str]:
    """Invariant violations of one repetition's LER points, by point."""
    bad: Dict[int, str] = {}
    totals = _plan_totals(policy, shard_size)
    for i, pt in enumerate(points):
        shots, fails = pt["shots"], pt["failures"]
        if totals.get(shots) != pt["num_shards"]:
            bad[i] = f"shots/shards {shots}/{pt['num_shards']} off the plan"
        elif (policy.is_adaptive and shots < policy.max_shots
              and fails < (policy.target_failures or 0)):
            bad[i] = f"stopped at {shots} shots with {fails} failures"
    by_patch: Dict[str, List[int]] = {}
    for i, pt in enumerate(points):
        by_patch.setdefault(pt["patch"], []).append(i)
    for idx in by_patch.values():
        idx = sorted(idx, key=lambda i: points[i]["p"])
        for a, b in zip(idx, idx[1:]):
            pa, pb = points[a], points[b]
            if _disjoint_above((pa["failures"], pa["shots"]),
                               (pb["failures"], pb["shots"])):
                bad.setdefault(b, f"LER falls from p={pa['p']} to p={pb['p']}")
    p_min = min(pt["p"] for pt in points)
    lowest = {pt["patch"]: i for i, pt in enumerate(points)
              if pt["p"] == p_min}
    if "d3" in lowest and "d5" in lowest:
        d3, d5 = points[lowest["d3"]], points[lowest["d5"]]
        if _disjoint_above((d5["failures"], d5["shots"]),
                           (d3["failures"], d3["shots"])):
            bad.setdefault(lowest["d5"], f"d=5 above d=3 at p={p_min}")
    return bad


def check_yield(cells: Sequence[dict]) -> Dict[int, str]:
    """Invariant violations of one repetition's yield cells, by cell."""
    bad: Dict[int, str] = {}
    groups: Dict[tuple, List[int]] = {}
    for i, c in enumerate(cells):
        if sum(c["distance_counts"].values()) != c["samples"]:
            bad[i] = "distance counts do not sum to the samples"
        elif not 0 <= c["accepted"] <= c["samples"]:
            bad[i] = "accepted outside [0, samples]"
        groups.setdefault((c["size"], c["model"]), []).append(i)
    for idx in groups.values():
        idx = sorted(idx, key=lambda i: cells[i]["rate"])
        for a, b in zip(idx, idx[1:]):
            ca, cb = cells[a], cells[b]
            if _disjoint_above((cb["accepted"], cb["samples"]),
                               (ca["accepted"], ca["samples"])):
                bad.setdefault(b, f"yield rises from rate {ca['rate']} "
                                  f"to {cb['rate']}")
    return bad


def check_points(workload: Workload, points: Sequence[dict]) -> Dict[int, str]:
    if workload.kind == "yield":
        return check_yield(points)
    if workload.name == "ler_sweep":
        return check_ler(points, LER_SWEEP_POLICY, LER_SWEEP_SHARD)
    return check_ler(points, ShotPolicy.fixed(LER_LOWP_SHOTS), LER_LOWP_SHARD)


def pinned_counts(workload: Workload, points: Sequence[dict]) -> List[list]:
    """The counts pinned for the default seed, in point order."""
    if workload.kind == "yield":
        return [[c["accepted"], c["distance_counts"]] for c in points]
    return [[pt["failures"], pt["shots"], pt["num_shards"]] for pt in points]


def compare_pinned(workload: Workload, points: Sequence[dict],
                   reference: Optional[list]) -> Dict[int, str]:
    """Points whose counts differ from the pinned ones, by point."""
    if reference is None:
        return {}
    got = pinned_counts(workload, points)
    if len(reference) != len(got):
        return {i: f"reference has {len(reference)} points"
                for i in range(len(got))}
    return {i: f"counts {g} != pinned {r}"
            for i, (g, r) in enumerate(zip(got, reference)) if g != r}


def label(point: dict) -> str:
    if "patch" in point:
        return f"{point['patch']} p={point['p']}"
    return f"l={point['size']} {point['model']} rate={point['rate']}"
