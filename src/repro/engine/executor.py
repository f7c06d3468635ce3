"""Sharded Monte-Carlo executor: the single entry point for engine work.

The executor takes a :class:`~repro.engine.tasks.TaskSpec`, splits the
requested shots (or sample attempts) into shards, hands the shards to a
pluggable execution :class:`~repro.engine.backends.Backend` (in-process, a
local process pool, or a fleet of remote socket workers), and merges the
per-shard statistics with the binomial pooling from
:mod:`repro.analysis.stats`.

Determinism contract
--------------------
Shard ``i`` of a task always draws its generator from RNG child stream ``i``
of the run's root seed (:func:`repro.engine.rng.child_stream`), and merged
statistics are plain sums keyed by shard slot, so results are
**bit-identical for any backend, worker count or host count** and for
repeated runs with the same seed.  As a special case, a fixed-policy run
that fits in a single shard seeds the simulator with the *raw* user seed -
exactly what the pre-engine experiment drivers did - so legacy seeds keep
producing legacy numbers.

Workers memoise a warm :class:`~repro.engine.pipeline.DecodingPipeline`
(circuit, DEM, decoder, geodesic/syndrome caches) per task content hash, so a
task's expensive setup is paid once per process, not once per shard — and
successive shards and scheduler waves of the same task decode against
already-cached geodesics and memoised syndromes.  The memo lives at module
scope precisely so it warms up wherever the shard functions run: a pool
worker on this host and a ``python -m repro.engine.worker`` process on
another machine get the same treatment.  Every dispatch also carries the
engine's ``cache_dir``, the one thing that decides where a worker saves
syndrome memos, so worker-side state never depends on a worker's own
environment or on when its process forked.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.stats import BinomialEstimate
from ..core.patch import AdaptedPatch
from ..env import env_choice, env_hosts, env_int, env_str
from ..decoder.matching import MatchingGraph, MwpmDecoder
from ..decoder.unionfind import UnionFindDecoder
from ..stabilizer.dem import build_detector_error_model
from .backends import BACKEND_NAMES, Backend, create_backend
from .cache import ResultCache
from .pipeline import DecodingPipeline
from .rng import Seed, as_seed_sequence, child_stream, from_fingerprint, seed_fingerprint
from .scheduler import ShotPolicy, ShotScheduler, rng_mode_shot_cost
from .tasks import LerPointTask, PatchSampleTask, YieldTask, canonical_json

__all__ = [
    "EngineConfig",
    "FusionStats",
    "LerResult",
    "SweepItem",
    "WaveUpdate",
    "Engine",
    "default_engine",
    "set_default_engine",
    "ler_cache_key",
    "seeded_task_key",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineConfig:
    """Execution knobs (none of them may change the numbers a task produces).

    Attributes
    ----------
    max_workers:
        Process-pool width of the ``"process"`` backend; ``1`` (the
        default) runs everything in-process.
    shard_size:
        Maximum shots per shard.  Runs that fit in one shard follow the
        legacy single-stream seeding, so the default is chosen above the
        laptop-scale shot counts used by the tests and benchmarks.
    cache_dir:
        Root of the on-disk result cache; ``None`` disables caching.
    backend:
        Execution strategy: ``"process"`` (the default — a local process
        pool, or in-process when ``max_workers`` is 1), ``"serial"``
        (force in-process regardless of ``max_workers``), or ``"socket"``
        (remote ``repro.engine.worker`` processes listed in ``hosts``).
        Results are backend-invariant, so the choice is excluded from
        cache keys.
    hosts:
        ``(host, port)`` pairs of remote workers for the socket backend;
        ignored by the other backends.  An entry per job slot — list a
        host twice to keep two shards in flight there.
    """

    max_workers: int = 1
    shard_size: int = 4096
    cache_dir: Optional[str] = None
    backend: str = "process"
    hosts: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"valid backends: {', '.join(BACKEND_NAMES)}"
            )
        if self.backend == "socket" and not self.hosts:
            raise ValueError("socket backend needs at least one (host, port)")

    @classmethod
    def from_env(cls, env=None) -> "EngineConfig":
        """Read ``REPRO_WORKERS`` / ``REPRO_CACHE`` / ``REPRO_SHARD_SIZE``
        plus the backend selection (``REPRO_BACKEND`` / ``REPRO_HOSTS``).

        Every variable is validated up front (:mod:`repro.env`): garbage,
        non-positive or malformed values raise a ``ValueError`` naming the
        variable instead of surfacing later as a bare traceback.
        """
        env = os.environ if env is None else env
        workers = env_int("REPRO_WORKERS", 1, minimum=1, env=env)
        cache = env_str("REPRO_CACHE", env=env)
        shard = env_int("REPRO_SHARD_SIZE", 4096, minimum=1, env=env)
        backend = env_choice("REPRO_BACKEND", "process", BACKEND_NAMES,
                             env=env)
        hosts = env_hosts("REPRO_HOSTS", env=env)
        return cls(max_workers=workers, shard_size=shard, cache_dir=cache,
                   backend=backend, hosts=hosts)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LerResult:
    """Merged outcome of one LER task run through the engine."""

    task: LerPointTask
    failures: int
    shots: int
    num_detectors: int
    num_dem_errors: int
    num_shards: int
    from_cache: bool = False

    @property
    def estimate(self) -> BinomialEstimate:
        return BinomialEstimate(failures=self.failures, shots=self.shots)

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots

    def to_memory_result(self):
        """Adapt to the legacy :class:`MemoryExperimentResult` shape."""
        from ..experiments.memory import MemoryExperimentResult

        return MemoryExperimentResult(
            physical_error_rate=self.task.physical_error_rate,
            rounds=self.task.rounds,
            shots=self.shots,
            failures=self.failures,
            num_detectors=self.num_detectors,
            num_dem_errors=self.num_dem_errors,
            decoder=self.task.decoder,
        )


@dataclass(frozen=True)
class SweepItem:
    """One (task, shot policy, seed) cell of a sweep.

    ``Engine.run_sweep`` schedules every pending item's shards into one pool,
    so cells with different policies (adaptive waves next to fixed budgets)
    overlap instead of draining one task at a time.  The seed is the item's
    *own* root: callers splitting a sweep from a single user seed derive one
    child stream per item (see :meth:`Engine.run_ler_many`).
    """

    task: LerPointTask
    policy: ShotPolicy
    seed: Seed = None


@dataclass(frozen=True)
class WaveUpdate:
    """Progress of one sweep item after a scheduler wave merged.

    Delivered to the ``on_wave`` callback of :meth:`Engine.run_sweep` from
    the submitting process, in the deterministic wave order of each item
    (waves of *different* items may interleave with backend timing, but an
    item's own updates always arrive in wave order with strictly growing
    cumulative counts).  ``failures``/``shots`` are the item's merged totals
    so far — exactly what the scheduler's next stop decision will see — so a
    service layer can persist them as a partial result without re-deriving
    any statistics.
    """

    index: int          # position of the item in the sweep
    wave: int           # 0-based merged-wave counter of this item
    wave_failures: int  # failures contributed by this wave alone
    wave_shots: int     # shots contributed by this wave alone
    failures: int       # cumulative failures after the merge
    shots: int          # cumulative shots after the merge


@dataclass(frozen=True)
class FusionStats:
    """Grouped-dispatch breakdown of one executed ``run_sweep`` call.

    Observability only: a shard group shares one backend dispatch, never
    variates, so none of these counters can correlate with the numbers a
    sweep produces (grouping depends on backend timing; results are
    grouping-invariant by construction).  A dispatch carrying >= 2 shards
    counts as a *fused* group.  ``Engine.run_sweep`` stores the stats of its
    last call on :attr:`Engine.last_fusion`, and the sweep benchmarks
    surface them in their BENCH JSON artifacts so grouping is visible from
    CI.
    """

    dispatches: int = 0        # backend submissions + inline executions
    fused_groups: int = 0      # dispatches that carried >= 2 shards
    fused_shards: int = 0      # shards that travelled inside a fused group
    total_shards: int = 0      # every shard the sweep executed
    fused_tasks: int = 0       # distinct sweep items per fused group, summed
    fused_shots: int = 0       # shots sampled inside fused groups
    total_shots: int = 0       # every shot the sweep sampled
    max_group_shards: int = 0  # largest single dispatch, in shards

    @property
    def fused_shot_fraction(self) -> float:
        """Fraction of sampled shots that rode in a fused group."""
        return self.fused_shots / self.total_shots if self.total_shots else 0.0

    @property
    def mean_group_tasks(self) -> float:
        """Mean distinct sweep items per fused group (0 when nothing fused)."""
        return self.fused_tasks / self.fused_groups if self.fused_groups else 0.0

    def payload(self) -> dict:
        """JSON-able counters + derived ratios for BENCH artifacts."""
        return {
            "dispatches": self.dispatches,
            "fused_groups": self.fused_groups,
            "fused_shards": self.fused_shards,
            "total_shards": self.total_shards,
            "fused_tasks": self.fused_tasks,
            "fused_shots": self.fused_shots,
            "total_shots": self.total_shots,
            "max_group_shards": self.max_group_shards,
            "fused_shot_fraction": self.fused_shot_fraction,
            "mean_group_tasks": self.mean_group_tasks,
        }


class _SweepTaskRun:
    """Mutable progress of one sweep item while its shards are in flight.

    Shard seeds and wave bookkeeping reproduce the historical task-by-task
    loop exactly: shard ``i`` draws child stream ``i`` of the item seed (or
    the raw seed for a legacy single-shard fixed run), and the scheduler
    only sees *merged* statistics of complete waves, so the shard plan —
    and the result — is independent of completion order, worker count and
    execution backend.
    """

    def __init__(self, index: int, item: SweepItem, shard_size: int):
        self.index = index
        self.item = item
        self.sched = ShotScheduler(item.policy, shard_size)
        self.root = as_seed_sequence(item.seed)
        self.single_shard = (not item.policy.is_adaptive
                             and item.policy.max_shots <= shard_size)
        self.key: Optional[str] = None
        self.failures = 0
        self.num_shards = 0
        self.num_detectors = 0
        self.num_dem = 0
        self.wave_shards: List[Tuple[int, int]] = []
        self.wave_outs: List[Optional[Tuple[int, int, int]]] = []
        self.wave_pending = 0
        self.waves_merged = 0

    def shard_seed(self, shard_index: int) -> Seed:
        if self.single_shard:
            return self.item.seed
        return child_stream(self.root, shard_index)

    def begin_wave(self, wave: List[Tuple[int, int]]) -> None:
        self.wave_shards = wave
        self.wave_outs = [None] * len(wave)
        self.wave_pending = len(wave)

    def complete_slot(self, slot: int, out: Tuple[int, int, int]) -> bool:
        """Record one shard result; True when the whole wave has landed."""
        self.wave_outs[slot] = out
        self.wave_pending -= 1
        return self.wave_pending == 0

    def merge_wave(self) -> WaveUpdate:
        outs = self.wave_outs
        wave_failures = sum(o[0] for o in outs)
        wave_shots = sum(n for _, n in self.wave_shards)
        self.num_detectors, self.num_dem = outs[0][1], outs[0][2]
        self.failures += wave_failures
        self.num_shards += len(outs)
        self.sched.record(wave_failures, wave_shots)
        update = WaveUpdate(index=self.index, wave=self.waves_merged,
                            wave_failures=wave_failures,
                            wave_shots=wave_shots,
                            failures=self.failures,
                            shots=self.sched.shots_done)
        self.waves_merged += 1
        return update

    def result(self) -> LerResult:
        return LerResult(task=self.item.task, failures=self.failures,
                         shots=self.sched.shots_done,
                         num_detectors=self.num_detectors,
                         num_dem_errors=self.num_dem,
                         num_shards=self.num_shards)


# ----------------------------------------------------------------------
# Worker-side execution (top-level so ProcessPoolExecutor can pickle it)
# ----------------------------------------------------------------------
#: Warm-context memo, guarded by ``_TASK_MEMO_LOCK``: pool workers own their
#: process, but the socket worker serves every connection on its own thread,
#: so concurrent ``_run_ler_shard`` calls land on this dict together.  Only
#: the memo bookkeeping is locked — pipeline builds run outside the lock, so
#: two threads racing on a cold key may both build; the last insert wins and
#: the loser's pipeline is simply garbage-collected (correct either way:
#: pipelines for one key are interchangeable).  Keyed by (task content hash,
#: cache directory), so a warm pipeline only ever saves its syndrome memo
#: where the dispatch that reuses it asked.
_TASK_MEMO: Dict[Tuple[str, Optional[str]], tuple] = {}
_TASK_MEMO_LOCK = threading.Lock()

#: Warm task contexts kept per worker (LRU).  Cross-task interleaving
#: rotates shards of every pending sweep task through each worker, so the
#: memo must hold at least as many contexts as the sweep has concurrent
#: tasks — otherwise every shard rebuilds the circuit/DEM/decoder it just
#: evicted.  Cost is memory per worker process: one pipeline + caches each.
TASK_MEMO_SIZE = 16


def _context_for(task: LerPointTask, cache_dir: Optional[str] = None) -> tuple:
    """Build (or reuse) the warm decoding pipeline for a task in this process.

    The pipeline carries the circuit, the decoder and its geodesic/syndrome
    caches, keyed by the task's DEM-determining content hash; scheduler waves
    that re-enter the same task decode against warm caches.  With a
    ``cache_dir`` the pipeline is bound to that result cache: it imports any
    persisted syndrome memo before its first shard and
    :func:`_run_ler_shards` saves the memo back once per task, after the
    dispatch group's last shard.  Without one nothing is read or written.
    The memo is LRU-bounded by :data:`TASK_MEMO_SIZE`.  The DEM itself comes
    from the per-process structure-template LRU in
    :mod:`repro.stabilizer.dem`, so tasks that differ only in noise rates
    share one structure pass.
    """
    task_hash = task.content_hash()
    key = (task_hash, cache_dir)
    with _TASK_MEMO_LOCK:
        ctx = _TASK_MEMO.pop(key, None)
    if ctx is None:
        circuit = task.build_circuit()
        dem = build_detector_error_model(circuit)
        graph = MatchingGraph(dem)
        if task.decoder == "mwpm":
            decoder = MwpmDecoder(graph)
        else:
            decoder = UnionFindDecoder(graph)
        pipeline = DecodingPipeline(circuit, decoder,
                                    rng_mode=task.rng_mode)
        if cache_dir is not None:
            pipeline.attach_memo_store(ResultCache(cache_dir), task_hash,
                                       task.decoder)
        ctx = (pipeline, len(dem))
    with _TASK_MEMO_LOCK:
        while len(_TASK_MEMO) >= TASK_MEMO_SIZE:
            _TASK_MEMO.pop(next(iter(_TASK_MEMO)))
        _TASK_MEMO[key] = ctx  # (re-)insert at the recent end
    return ctx


def _run_ler_shard(task: LerPointTask, seed: Seed, shots: int,
                   cache_dir: Optional[str] = None) -> Tuple[int, int, int]:
    """Sample + decode one shard; returns (failures, detectors, dem errors).

    ``cache_dir`` binds the task's warm pipeline to the dispatching engine's
    result cache (see :func:`_context_for`); saving the grown syndrome memo
    is left to :func:`_run_ler_shards`, once per task per group.
    """
    pipeline, dem_size = _context_for(task, cache_dir)
    stats = pipeline.run(shots, seed=seed)
    return (int(stats.failures), int(pipeline.circuit.num_detectors),
            int(dem_size))


def _run_ler_shards(jobs: Sequence[Tuple[LerPointTask, Seed, int]],
                    cache_dir: Optional[str] = None) -> List[Tuple[int, int, int]]:
    """Run one dispatch group: :func:`_run_ler_shard` per job, in order.

    The engine's only LER worker entry point — a lone shard is a group of
    one.  Every job reuses its task's warm pipeline from the task memo, so
    a group of N shards pays one dispatch round-trip instead of N.  After
    the group's last shard each distinct task's syndrome memo is saved once,
    in first-seen order (nothing without ``cache_dir``), from the warm
    pipeline the task memo still holds; an unwritable cache directory
    therefore fails the whole group.
    """
    results = [_run_ler_shard(task, seed, shots, cache_dir)
               for task, seed, shots in jobs]
    if cache_dir is not None:
        for task in dict.fromkeys(task for task, _, _ in jobs):
            _context_for(task, cache_dir)[0].persist_memo()
    return results


#: Grouped dispatch: ``run_sweep`` packs at most this many shards into one
#: backend submission ...
GROUP_MAX_SHARDS = 8
#: ... and at most this many rng-weighted shots
#: (:func:`~repro.engine.scheduler.rng_mode_shot_cost`).  A shard costing
#: more already saturates a worker on its own and dispatches alone.
GROUP_MAX_SHOTS = 8192


def _plan_fused_groups(shards: Sequence[Tuple[str, int, object]], *,
                       target_groups: int = 1) -> List[List]:
    """Partition ready shard descriptors into dispatch groups.

    ``shards`` is a sequence of ``(rng_mode, shots, entry)`` triples in
    deterministic plan order; the returned groups partition the ``entry``
    objects, preserving that order within and across groups.  Grouping is
    *pure dispatch*: every shard's RNG stream is bound to its (task, seed,
    shard index) coordinates before planning, so any grouping — including
    the timing-dependent ``target_groups`` load split below — yields
    bit-identical results; only wall-clock and the fusion counters move.

    A shard whose weighted cost exceeds :data:`GROUP_MAX_SHOTS` dispatches
    alone; the rest fill one open group in plan order until it holds
    :data:`GROUP_MAX_SHARDS` shards or the next shard would overflow the
    shot budget.  ``target_groups`` (the caller's free backend slots) caps
    group size at ``ceil(eligible / target_groups)`` so grouping never
    *serialises* work an idle worker could overlap — batching is only worth
    its dispatch saving once every slot already has something to chew on.
    """
    costs = [rng_mode_shot_cost(mode, shots) for mode, shots, _ in shards]
    eligible = sum(cost <= GROUP_MAX_SHOTS for cost in costs)
    cap = min(GROUP_MAX_SHARDS, -(-eligible // max(target_groups, 1)))
    groups: List[List] = []
    group: List = []
    group_cost = 0
    for (_, _, entry), cost in zip(shards, costs):
        if cost > GROUP_MAX_SHOTS or cap <= 1:
            groups.append([entry])
            continue
        if not group or len(group) >= cap or group_cost + cost > GROUP_MAX_SHOTS:
            group, group_cost = [], 0
            groups.append(group)
        group.append(entry)
        group_cost += cost
    return groups


def _run_patch_attempts(task: PatchSampleTask, root_fp, start: int, stop: int) -> list:
    """Evaluate attempt indices [start, stop); return accepted defect sets.

    ``root_fp`` is the (entropy, spawn_key) fingerprint of the root seed, or
    ``None`` for OS entropy (in which case attempts use fresh entropy and the
    run is not reproducible - same as the legacy behaviour with seed=None).
    """
    from ..core.adaptation import adapt_patch
    from ..core.metrics import evaluate_patch

    layout = task.layout()
    model = task.defect_model()
    root = from_fingerprint(root_fp)
    accepted = []
    for idx in range(start, stop):
        stream = None if root is None else child_stream(root, idx)
        rng = np.random.default_rng(stream)
        defects = model.sample(layout, rng)
        patch = adapt_patch(layout, defects)
        if task.require_valid:
            if not patch.valid:
                continue
            if evaluate_patch(patch).distance < task.min_distance:
                continue
        accepted.append((idx,
                         sorted(tuple(q) for q in defects.faulty_qubits),
                         sorted((tuple(a), tuple(b))
                                for a, b in defects.faulty_links)))
    return accepted


def _run_yield_block(task: YieldTask, root_fp, start: int, stop: int) -> tuple:
    """Evaluate yield sample indices [start, stop); return merged counts.

    Thin task-unpacking shim over
    :func:`repro.chiplet.yield_model._evaluate_yield_block`, so the
    per-index RNG-stream contract (sample ``i`` draws child stream ``i`` of
    the root fingerprint) lives in exactly one place and the task-routed
    path can never drift from the estimator's direct fallback.
    """
    from ..chiplet.yield_model import _evaluate_yield_block

    return _evaluate_yield_block(task.chiplet_size, task.defect_model(),
                                 task.criterion(), task.allow_rotation,
                                 task.boundary_standard(), root_fp,
                                 start, stop)


def seeded_task_key(task, fp) -> str:
    """Cache key for runs fully determined by (task, seed fingerprint).

    Used by the yield and patch-sample paths, whose results depend on no
    other execution knob; LER keys additionally cover policy and shard size
    (:func:`ler_cache_key`).  Module-level so out-of-process layers (the
    service's coalescer and its cache-hit probe) mint exactly the key an
    engine run will write.
    """
    body = {"task": task.content_hash(), "seed": [list(fp[0]), list(fp[1])]}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def ler_cache_key(task: LerPointTask, seed: Seed, policy: ShotPolicy,
                  shard_size: int) -> Optional[str]:
    """Cache key of one LER run: everything that determines the numbers.

    Worker count, backend and hosts are deliberately excluded: results are
    invariant to where shards run (the backend parity suite enforces it), so
    a result computed by a remote socket fleet answers a later serial run
    and vice versa.  ``shard_size`` is included because the multi-shard
    stream split depends on it.  Returns ``None`` for unseeded runs, which
    are not reproducible and must never be cached (or coalesced).
    """
    fp = seed_fingerprint(seed)
    if fp is None:
        return None
    body = {
        "task": task.content_hash(),
        "seed": [list(fp[0]), list(fp[1])],
        "policy": policy.payload(),
        "shard_size": shard_size,
    }
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def _ler_cache_record(task: LerPointTask, result: "LerResult") -> dict:
    """The on-disk record for one LER result (single shape for all writers)."""
    return {
        "kind": task.kind,
        "task_hash": task.content_hash(),
        "task": task.payload(),
        "failures": result.failures,
        "shots": result.shots,
        "num_detectors": result.num_detectors,
        "num_dem_errors": result.num_dem_errors,
        "num_shards": result.num_shards,
    }


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class Engine:
    """Runs task specs: sharding, scheduling, caching, result merging.

    *Where* shards run is delegated to a pluggable
    :class:`~repro.engine.backends.Backend` built from the config
    (serial, local process pool, or remote socket workers); every
    execution path below — ``run_sweep``/``run_ler``, ``run_yield``,
    ``sample_patches``, ``starmap`` — routes through it, and all backends
    produce bit-identical numbers.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self._cache = (ResultCache(self.config.cache_dir)
                       if self.config.cache_dir else None)
        self._backend: Optional[Backend] = None
        #: Fusion counters of the most recent ``run_sweep`` (diagnostics
        #: only — fusion is invisible in the numbers and the cache).
        self.last_fusion: FusionStats = FusionStats()

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def backend(self) -> Backend:
        """The execution backend (built lazily from the config)."""
        if self._backend is None:
            self._backend = create_backend(
                self.config.backend,
                max_workers=self.config.max_workers,
                hosts=self.config.hosts,
            )
        return self._backend

    @property
    def parallel_slots(self) -> int:
        """Shards the backend can usefully keep in flight (throughput hint).

        Block/wave sizing only — never part of a cache key, because results
        are slot-count invariant.
        """
        return self.backend.parallel_slots

    def _cache_key(self, task, seed: Seed, policy: ShotPolicy) -> Optional[str]:
        """This engine's key for one LER run (see :func:`ler_cache_key`)."""
        return ler_cache_key(task, seed, policy, self.config.shard_size)

    def starmap(self, fn, jobs: Sequence[tuple]) -> List:
        """Run ``fn(*job)`` for every job, in order, on the backend.

        ``fn`` must be a module-level callable (picklable).  This is the
        generic fan-out primitive other Monte-Carlo layers (e.g. the chiplet
        yield estimator) build on; result order always matches job order,
        and a failing job cancels the rest of the batch instead of
        stranding it on the backend.
        """
        return self.backend.map(fn, jobs)

    # ------------------------------------------------------------------
    # LER tasks
    # ------------------------------------------------------------------
    def run_ler(
        self,
        task: LerPointTask,
        *,
        shots: Optional[int] = None,
        policy: Optional[ShotPolicy] = None,
        seed: Seed = None,
        on_wave=None,
    ) -> LerResult:
        """Run one LER task to completion under a shot policy.

        Exactly one of ``shots`` (fixed budget) or ``policy`` must be given.
        ``on_wave`` receives a :class:`WaveUpdate` after each merged wave.
        """
        policy = self._resolve_policy(shots, policy)
        return self.run_sweep([SweepItem(task, policy, seed)],
                              on_wave=on_wave)[0]

    def run_ler_many(
        self,
        tasks: Sequence[LerPointTask],
        *,
        shots: Optional[int] = None,
        policy: Optional[ShotPolicy] = None,
        seed: Seed = None,
        on_wave=None,
    ) -> List[LerResult]:
        """Run a batch of LER tasks; task ``i`` uses RNG child stream ``i``.

        The whole batch is one sweep: shards of *all* tasks are planned by
        per-task schedulers and interleaved into one pool submission, so an
        adaptive task draining its last wave no longer idles the workers
        that could already be running the next task's shards.
        """
        policy = self._resolve_policy(shots, policy)
        if seed is None:
            # Unseeded batches keep the legacy fresh-entropy-per-task
            # semantics; passing None through also keeps them out of the
            # cache (a key minted from OS entropy could never hit again).
            seeds: List[Seed] = [None] * len(tasks)
        else:
            root = as_seed_sequence(seed)
            seeds = [child_stream(root, i) for i in range(len(tasks))]
        return self.run_sweep([SweepItem(task, policy, s)
                               for task, s in zip(tasks, seeds)],
                              on_wave=on_wave)

    # ------------------------------------------------------------------
    def run_sweep(self, items: Sequence[SweepItem], *,
                  on_wave=None) -> List[LerResult]:
        """Run a batch of sweep items with cross-task shard interleaving.

        Every pending item gets its own :class:`ShotScheduler`; the planned
        shards of *all* items share one execution backend, and completed
        shards merge back per item under the wave rule (a scheduler only
        sees the summed statistics of its own complete waves).  Results are
        therefore **bit-identical to running the items one at a time** —
        determinism comes from per-item child RNG streams and the
        wave-merge rule, never from completion order or from where a shard
        ran — while adaptive waves of one item overlap with fixed shards of
        another instead of draining task-by-task.  On the serial backend
        the same loop simply executes each submitted shard inline, which
        reproduces the historical task-by-task numbers exactly.

        Items mix policies freely (the cutoff sweep's fixed cells next to an
        adaptive low-p point); cache hits are resolved up front and misses
        are written back per item as each item finishes.

        ``on_wave`` is an optional callback invoked in the submitting
        process with a :class:`WaveUpdate` after each item's wave merges —
        the hook partial-result consumers (the service's wave-by-wave
        persistence) build on.  It fires *before* the item's next wave is
        planned, so an exception raised by the callback (e.g. a job
        cancellation) aborts the sweep cleanly: outstanding shards are
        cancelled on the backend and the exception propagates.  Items
        resolved from cache never produce updates.

        Pending shards are grouped (see :func:`_plan_fused_groups`) so one
        backend dispatch advances many sweep points; grouping is pure
        dispatch — results and cache records stay bit-identical to
        shard-by-shard execution — and the realised grouping is reported on
        :attr:`last_fusion`.
        """
        self.last_fusion = FusionStats()
        results: List[Optional[LerResult]] = [None] * len(items)
        runs: List[_SweepTaskRun] = []
        for i, item in enumerate(items):
            key = (self._cache_key(item.task, item.seed, item.policy)
                   if self._cache is not None else None)
            hit = self._load_cached_ler(item.task, key) if key is not None else None
            if hit is not None:
                results[i] = hit
                continue
            run = _SweepTaskRun(i, item, self.config.shard_size)
            run.key = key
            runs.append(run)

        if runs:
            self._run_sweep_backend(runs, results, on_wave)
        return results  # type: ignore[return-value]

    def _finish_sweep_run(self, run: _SweepTaskRun, result: LerResult,
                          results: List[Optional[LerResult]]) -> None:
        results[run.index] = result
        if run.key is not None:
            self._cache.put(run.key, _ler_cache_record(run.item.task, result))

    def _run_sweep_backend(self, runs: List[_SweepTaskRun],
                           results: List[Optional[LerResult]],
                           on_wave=None) -> None:
        """Interleaved, grouped execution: shards of all runs share dispatches.

        Planned shards collect in ``ready`` (deterministic plan order),
        then each flush partitions them into shard groups
        (:func:`_plan_fused_groups`) and submits one
        :func:`_run_ler_shards` call per group.  Because every shard's RNG
        stream is bound before planning, grouping affects wall-clock and
        the fusion counters only.
        """
        backend = self.backend
        # Where workers save syndrome memos: this engine's result cache.
        cache_dir = self.config.cache_dir or None
        pending: Dict = {}  # Future -> [(run, wave slot), ...] in job order
        ready: List = []    # (run, slot, seed, shots) awaiting dispatch
        unfinished = len(runs)
        counters = {"dispatches": 0, "fused_groups": 0, "fused_shards": 0,
                    "total_shards": 0, "fused_tasks": 0, "fused_shots": 0,
                    "total_shots": 0, "max_group_shards": 0}

        def notify(update: WaveUpdate) -> None:
            if on_wave is not None:
                on_wave(update)

        def plan_next_wave(run: _SweepTaskRun) -> None:
            nonlocal unfinished
            wave = run.sched.next_wave()
            if not wave:
                unfinished -= 1
                self._finish_sweep_run(run, run.result(), results)
                return
            run.begin_wave(wave)
            for slot, (idx, n) in enumerate(wave):
                ready.append((run, slot, run.shard_seed(idx), n))

        def complete(run: _SweepTaskRun, slot: int, out) -> None:
            if run.complete_slot(slot, out):
                notify(run.merge_wave())
                plan_next_wave(run)

        def record_group(group: List) -> None:
            shots = sum(n for _, _, _, n in group)
            counters["dispatches"] += 1
            counters["total_shards"] += len(group)
            counters["total_shots"] += shots
            counters["max_group_shards"] = max(
                counters["max_group_shards"], len(group))
            if len(group) >= 2:
                counters["fused_groups"] += 1
                counters["fused_shards"] += len(group)
                counters["fused_shots"] += shots
                counters["fused_tasks"] += len(
                    {id(run) for run, _, _, _ in group})

        def flush() -> None:
            while ready:
                free = max(backend.parallel_slots - len(pending), 1)
                groups = _plan_fused_groups(
                    [(shard[0].item.task.rng_mode, shard[3], shard)
                     for shard in ready], target_groups=free)
                ready.clear()
                # A lone shard with nothing to overlap runs in the submitting
                # process instead of paying round-trips (remote backends opt
                # out — their submitter may be a thin coordinator).
                inline = (backend.inline_single_shard and unfinished == 1
                          and not pending and len(groups) == 1
                          and len(groups[0]) == 1)
                for group in groups:
                    record_group(group)
                    jobs = tuple((run.item.task, seed, n)
                                 for run, _, seed, n in group)
                    slots = [(run, slot) for run, slot, _, _ in group]
                    if inline:
                        for (run, slot), out in zip(
                                slots, _run_ler_shards(jobs, cache_dir)):
                            complete(run, slot, out)
                    else:
                        pending[backend.submit(_run_ler_shards,
                                               (jobs, cache_dir))] = slots
                if not inline:
                    return  # else completion may have planned the next wave

        try:
            for run in runs:
                plan_next_wave(run)
            flush()
            while pending:
                done = backend.wait_any(pending)
                for fut in done:
                    slots = pending.pop(fut)
                    for (run, slot), out in zip(slots, fut.result()):
                        complete(run, slot, out)
                flush()
            self.last_fusion = FusionStats(**counters)
        except BaseException as exc:
            # A failing shard (or an interrupt) must not strand the other
            # items' shards on the backend; give the backend a chance to
            # triage infrastructure failures (e.g. evict a broken pool).
            backend.note_failure(exc)
            for fut in pending:
                fut.cancel()
            raise

    # ------------------------------------------------------------------
    def _resolve_policy(self, shots: Optional[int],
                        policy: Optional[ShotPolicy]) -> ShotPolicy:
        if (shots is None) == (policy is None):
            raise ValueError("specify exactly one of shots= or policy=")
        return policy if policy is not None else ShotPolicy.fixed(shots)

    def _load_cached_ler(self, task: LerPointTask, key: str) -> Optional[LerResult]:
        record = self._cache.get(key)
        if record is None or record.get("task_hash") != task.content_hash():
            return None
        try:
            return LerResult(
                task=task,
                failures=int(record["failures"]),
                shots=int(record["shots"]),
                num_detectors=int(record["num_detectors"]),
                num_dem_errors=int(record["num_dem_errors"]),
                num_shards=int(record["num_shards"]),
                from_cache=True,
            )
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Patch-sample tasks
    # ------------------------------------------------------------------
    def sample_patches(self, task: PatchSampleTask, *,
                       seed: Seed = None) -> List[AdaptedPatch]:
        """Draw defective patches; deterministic in ``max_workers`` (see tasks).

        Workers return accepted *defect sets* (JSON-able coordinates); the
        adapted patches are rebuilt in the parent so nothing heavyweight
        crosses the process boundary or lands in the cache.
        """
        fp = seed_fingerprint(seed)
        key = None
        if self._cache is not None and fp is not None:
            key = seeded_task_key(task, fp)
            record = self._cache.get(key)
            if record is not None and record.get("task_hash") == task.content_hash():
                try:
                    return self._rebuild_patches(task, record["accepted"])
                except (KeyError, TypeError, ValueError):
                    pass

        accepted = self._sample_patch_specs(task, fp)
        if key is not None:
            self._cache.put(key, {
                "kind": task.kind,
                "task_hash": task.content_hash(),
                "task": task.payload(),
                "accepted": [[idx, [list(q) for q in qubits],
                              [[list(a), list(b)] for a, b in links]]
                             for idx, qubits, links in accepted],
            })
        return self._rebuild_patches(task, accepted)

    def _sample_patch_specs(self, task: PatchSampleTask, fp) -> list:
        """First ``num_patches`` acceptances in attempt-index order."""
        max_attempts = task.max_attempts
        # Block = contiguous attempt range; sized so one wave of blocks
        # plausibly yields the whole batch while still splitting across the
        # backend's slots.  Purely a throughput knob - results only depend
        # on indices.
        block = max(1, min(64, (task.num_patches + 1) // 2 + 1))
        wave_blocks = max(2 * self.parallel_slots, 2)
        accepted: list = []
        start = 0
        while start < max_attempts and len(accepted) < task.num_patches:
            stops = []
            s = start
            for _ in range(wave_blocks):
                if s >= max_attempts:
                    break
                e = min(s + block, max_attempts)
                stops.append((s, e))
                s = e
            outs = self.starmap(
                _run_patch_attempts,
                [(task, fp, a, b) for a, b in stops],
            )
            for out in outs:
                accepted.extend(out)
            start = s
        accepted.sort(key=lambda item: item[0])
        return accepted[: task.num_patches]

    # ------------------------------------------------------------------
    # Yield tasks
    # ------------------------------------------------------------------
    def run_yield(self, task: YieldTask, *, seed: Seed = None):
        """Run a chiplet yield task; returns a :class:`YieldResult`.

        Sample blocks fan out over the worker pool and counts merge by plain
        summation; because sample ``i`` always draws RNG child stream ``i``
        of ``seed``, the result is identical for any worker count and block
        split.  Seeded runs land in the on-disk result cache under the
        task's content hash, exactly like LER tasks.
        """
        from ..chiplet.yield_model import YieldResult

        fp = seed_fingerprint(seed)
        key = None
        if self._cache is not None and fp is not None:
            key = seeded_task_key(task, fp)
            record = self._cache.get(key)
            if record is not None and record.get("task_hash") == task.content_hash():
                try:
                    return YieldResult(
                        chiplet_size=task.chiplet_size,
                        defect_rate=task.defect_rate,
                        defect_model_kind=task.defect_model_kind,
                        samples=int(record["samples"]),
                        accepted=int(record["accepted"]),
                        distance_counts={int(d): int(c) for d, c in
                                         record["distance_counts"].items()},
                        accepted_distance_counts={int(d): int(c) for d, c in
                                                  record["accepted_distance_counts"].items()},
                        from_cache=True,
                    )
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass

        from ..chiplet.yield_model import merge_yield_blocks, yield_block_ranges

        jobs = [(task, fp, start, stop)
                for start, stop in yield_block_ranges(
                    task.samples, self.parallel_slots)]
        accepted, distance_counts, accepted_counts = merge_yield_blocks(
            self.starmap(_run_yield_block, jobs))
        result = YieldResult(
            chiplet_size=task.chiplet_size,
            defect_rate=task.defect_rate,
            defect_model_kind=task.defect_model_kind,
            samples=task.samples,
            accepted=accepted,
            distance_counts=distance_counts,
            accepted_distance_counts=accepted_counts,
        )
        if key is not None:
            self._cache.put(key, {
                "kind": task.kind,
                "task_hash": task.content_hash(),
                "task": task.payload(),
                "samples": result.samples,
                "accepted": result.accepted,
                "distance_counts": {str(d): c for d, c in
                                    sorted(result.distance_counts.items())},
                "accepted_distance_counts": {str(d): c for d, c in
                                             sorted(result.accepted_distance_counts.items())},
            })
        return result

    @staticmethod
    def _rebuild_patches(task: PatchSampleTask, accepted) -> List[AdaptedPatch]:
        from ..core.adaptation import adapt_patch
        from ..noise.fabrication import DefectSet

        layout = task.layout()
        patches = []
        for _idx, qubits, links in accepted:
            defects = DefectSet.of(qubits=[tuple(q) for q in qubits],
                                   links=[(tuple(a), tuple(b)) for a, b in links])
            patches.append(adapt_patch(layout, defects))
        return patches


# ----------------------------------------------------------------------
# Process-wide default engine (configured from the environment)
# ----------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The engine used when drivers are not handed one explicitly.

    Configured once per process from ``REPRO_WORKERS`` / ``REPRO_CACHE`` /
    ``REPRO_SHARD_SIZE`` / ``REPRO_BACKEND`` / ``REPRO_HOSTS``; with no
    environment overrides it is a serial, cache-less engine whose numbers
    match the pre-engine code paths.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine(EngineConfig.from_env())
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> None:
    """Install (or with ``None``, reset) the process-wide default engine."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
