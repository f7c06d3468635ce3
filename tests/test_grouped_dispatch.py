"""Tests for grouped shard dispatch.

``run_sweep`` sends the shards of different sweep points to workers in
groups (:func:`repro.engine.executor._plan_fused_groups`), and every group —
a lone shard included — runs as one :func:`_run_ler_shards` call: a plain
loop of :func:`_run_ler_shard` over warm per-task pipelines.

The load-bearing contract: **grouping is pure dispatch**.  Whatever the
group limits, the rng modes inside a group, the backend or the cache
state, the numbers and the cache records are those of shard-by-shard
execution; only wall-clock and the :class:`~repro.engine.FusionStats`
counters move.  "Shard-by-shard" below means the planner constants
patched down to one shard per group, which the planner reads at call time
in the submitting process on every backend.
"""

import numpy as np
import pytest

from repro.core import adapt_patch
from repro.decoder import MatchingGraph, MwpmDecoder
from repro.engine import (
    Engine,
    EngineConfig,
    FusionStats,
    LerPointTask,
    ShotPolicy,
    SweepItem,
)
from repro.engine import executor as executor_mod
from repro.engine.executor import (
    _context_for,
    _plan_fused_groups,
    _run_ler_shard,
    _run_ler_shards,
)
from repro.engine.pipeline import DecodingPipeline, memo_cache_key
from repro.noise import DefectSet
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.packed import PackedFrameSimulator, _draw_scratch
from repro.surface_code import RotatedSurfaceCodeLayout


def task(d=3, p=0.01, rng_mode="exact"):
    patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p, rng_mode=rng_mode)


def ler_tuple(r):
    return (r.failures, r.shots, r.num_shards, r.num_detectors,
            r.num_dem_errors)


def sweep_items():
    """Mixed sweep: exact + bitgen, fixed + adaptive, d=3 and d=5."""
    return [
        SweepItem(task(3, 0.005),
                  ShotPolicy.adaptive(2048, min_shots=128,
                                      target_failures=15), 1),
        SweepItem(task(3, 0.01), ShotPolicy.fixed(640), 2),
        SweepItem(task(3, 0.02), ShotPolicy.fixed(64), 3),
        SweepItem(task(3, 0.015, rng_mode="bitgen"), ShotPolicy.fixed(640), 4),
        SweepItem(task(5, 0.01), ShotPolicy.fixed(512), 5),
        SweepItem(task(3, 0.008, rng_mode="bitgen"), ShotPolicy.fixed(256), 6),
    ]


@pytest.fixture
def one_shard_groups(monkeypatch):
    """Plan every shard as its own dispatch (shard-by-shard execution)."""
    monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", 1)


@pytest.fixture(scope="module")
def reference():
    """Shard-by-shard numbers of :func:`sweep_items` on the serial backend."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor_mod, "GROUP_MAX_SHARDS", 1)
        engine = Engine(EngineConfig(backend="serial", shard_size=128))
        results = engine.run_sweep(sweep_items())
        assert engine.last_fusion.fused_groups == 0
    return [ler_tuple(r) for r in results]


def _spy_submits(engine):
    """Record ``(fn, jobs)`` of every backend submission of ``engine``."""
    backend = engine.backend
    seen = []
    original = backend.submit

    def spy(fn, args):
        seen.append((fn, args[0]))
        return original(fn, args)

    backend.submit = spy
    return seen


# ----------------------------------------------------------------------
# Worker side: one group is a loop over warm pipelines
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_run_ler_shards_matches_run_ler_shard(self):
        """The group entry point returns exactly the per-job triples of
        the per-shard body, across modes, circuits and a repeated task."""
        jobs = ((task(3, 0.01), 5, 640), (task(3, 0.02), 6, 64),
                (task(3, 0.015, rng_mode="bitgen"), 7, 256),
                (task(5, 0.01), 8, 128),
                (task(3, 0.01), 9, 640))  # repeated task: warm pipeline reused
        assert _run_ler_shards(jobs) == [_run_ler_shard(*j) for j in jobs]

    def test_empty_group_runs_nothing(self):
        assert _run_ler_shards(()) == []

    @pytest.mark.parametrize("rng_mode", ["exact", "bitgen"])
    def test_warm_pipeline_matches_fresh_pipeline(self, rng_mode):
        """A group reruns one warm pipeline with other seeds and shot
        counts; each run must equal a fresh pipeline's run."""
        t = task(3, 0.02, rng_mode=rng_mode)
        warm = _context_for(t)[0]
        for shots, seed in [(640, 11), (64, 12), (1024, 13), (640, 11)]:
            got = warm.run(shots, seed=seed)
            circuit = t.build_circuit()
            decoder = MwpmDecoder(MatchingGraph(
                build_detector_error_model(circuit)))
            fresh = DecodingPipeline(circuit, decoder,
                                     rng_mode=rng_mode).run(shots, seed=seed)
            assert (got.shots, got.failures) == (fresh.shots, fresh.failures)

    @pytest.mark.parametrize("rng_mode", ["exact", "bitgen"])
    def test_reseeded_simulator_matches_solo_samples(self, rng_mode):
        """Back-to-back reseeded samples with different shot counts (and
        so different draw-buffer shapes) equal solo samples bit for bit."""
        circuit = task(3, 0.02, rng_mode=rng_mode).build_circuit()
        sim = PackedFrameSimulator(circuit, seed=0, rng_mode=rng_mode)
        for shots, seed in [(640, 21), (64, 22), (1024, 23), (1, 24)]:
            got = sim.reseed(seed).sample(shots)
            solo = PackedFrameSimulator(circuit, seed=seed,
                                        rng_mode=rng_mode).sample(shots)
            np.testing.assert_array_equal(got.detectors_packed,
                                          solo.detectors_packed)
            np.testing.assert_array_equal(got.observables_packed,
                                          solo.observables_packed)

    def test_draw_scratch_is_c_contiguous_across_shot_counts(self):
        for rows, shots in [(4, 640), (7, 64), (3, 1024), (1, 1)]:
            rbuf, hbuf = _draw_scratch(rows, shots)
            assert rbuf.shape == (rows, shots) and hbuf.shape == (rows, shots)
            assert rbuf.flags.c_contiguous and hbuf.flags.c_contiguous
            assert rbuf.dtype == np.float64 and hbuf.dtype == np.bool_


# ----------------------------------------------------------------------
# Planner edges (the rule units live in tests/test_sweep.py)
# ----------------------------------------------------------------------
class TestPlannerEdges:
    def test_no_shards_no_groups(self):
        assert _plan_fused_groups([]) == []

    def test_lone_shard_is_a_group_of_one(self):
        assert _plan_fused_groups([("exact", 512, "a")]) == [["a"]]

    def test_budget_is_inclusive(self):
        # Eight exact shards of 1024 cost exactly 8192: one group.
        shards = [("exact", 1024, i) for i in range(8)]
        assert _plan_fused_groups(shards) == [list(range(8))]
        # One more shot on the last shard overflows and closes the group.
        shards[-1] = ("exact", 1025, 7)
        assert _plan_fused_groups(shards) == [list(range(7)), [7]]

    def test_groups_partition_the_input(self):
        shards = [(("exact", "bitgen")[i % 2], 100 * (i % 5) + 1, i)
                  for i in range(40)] + [("exact", 9000, 40)]
        for target in (1, 2, 3, 8):
            groups = _plan_fused_groups(shards, target_groups=target)
            assert [e for g in groups for e in sorted(g)] == list(range(41))
            assert all(len(g) <= executor_mod.GROUP_MAX_SHARDS
                       for g in groups)


# ----------------------------------------------------------------------
# Engine: one dispatch path, grouping invisible in the numbers
# ----------------------------------------------------------------------
class TestOneDispatchPath:
    @pytest.mark.parametrize("backend,workers", [("serial", 1),
                                                 ("process", 2)])
    def test_every_submission_is_a_group(self, backend, workers):
        engine = Engine(EngineConfig(backend=backend, max_workers=workers,
                                     shard_size=128))
        seen = _spy_submits(engine)
        engine.run_sweep(sweep_items())
        engine.run_ler(task(3, 0.01), shots=512, seed=3)
        assert seen
        assert {fn for fn, _ in seen} == {_run_ler_shards}

    def test_inline_lone_shard_runs_as_a_group(self, monkeypatch):
        """The serial lone-shard shortcut goes through the same entry
        point, in the submitting process, without a backend submission."""
        calls = []
        real = executor_mod._run_ler_shards

        def counting(jobs, cache_dir):
            calls.append(len(jobs))
            return real(jobs, cache_dir)

        monkeypatch.setattr(executor_mod, "_run_ler_shards", counting)
        engine = Engine(EngineConfig(backend="serial", shard_size=128))
        seen = _spy_submits(engine)
        result = engine.run_ler(task(3, 0.01), shots=128, seed=4)
        assert calls == [1] and seen == []
        assert engine.last_fusion.dispatches == 1
        assert result.shots == 128

    def test_exact_and_bitgen_shards_share_a_dispatch(self, reference):
        engine = Engine(EngineConfig(backend="serial", shard_size=128))
        seen = _spy_submits(engine)
        results = engine.run_sweep(sweep_items())
        modes = [{t.rng_mode for t, _, _ in jobs} for _, jobs in seen]
        assert {"exact", "bitgen"} in modes, modes
        assert [ler_tuple(r) for r in results] == reference

    def test_lone_task_with_free_slots_never_groups(self):
        """One task whose shards fit the free slots dispatches shard by
        shard: the task-by-task baseline of the fused-sweep benchmark."""
        engine = Engine(EngineConfig(max_workers=2, shard_size=512))
        result = engine.run_ler(task(3, 0.01), shots=1024, seed=5)
        assert isinstance(engine.last_fusion, FusionStats)
        assert engine.last_fusion.fused_groups == 0
        assert engine.last_fusion.fused_shot_fraction == 0.0
        assert engine.last_fusion.total_shards == result.num_shards == 2

    def test_fusion_payload_keys(self):
        engine = Engine(EngineConfig(backend="serial", shard_size=128))
        engine.run_sweep(sweep_items())
        payload = engine.last_fusion.payload()
        for key in ("dispatches", "fused_groups", "fused_shot_fraction"):
            assert key in payload
        assert payload["dispatches"] == engine.last_fusion.dispatches
        assert payload["fused_groups"] > 0


class TestGroupingInvisibleInNumbers:
    @pytest.mark.parametrize("max_shards,max_shots", [
        (1, 8192), (2, 8192), (3, 1000), (8, 512), (8, 8192)])
    def test_group_limits(self, monkeypatch, reference, max_shards,
                          max_shots):
        monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", max_shards)
        monkeypatch.setattr(executor_mod, "GROUP_MAX_SHOTS", max_shots)
        engine = Engine(EngineConfig(backend="serial", shard_size=128))
        got = [ler_tuple(r) for r in engine.run_sweep(sweep_items())]
        assert got == reference, (max_shards, max_shots)
        assert (engine.last_fusion.fused_groups > 0) == (max_shards > 1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_pool(self, reference, workers):
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        got = [ler_tuple(r) for r in engine.run_sweep(sweep_items())]
        assert got == reference
        assert engine.last_fusion.fused_groups > 0, "vacuous parity"

    def test_process_pool_shard_by_shard(self, one_shard_groups, reference):
        engine = Engine(EngineConfig(max_workers=2, shard_size=128))
        got = [ler_tuple(r) for r in engine.run_sweep(sweep_items())]
        assert got == reference
        assert engine.last_fusion.fused_groups == 0

    def test_cache_key_ignores_group_limits(self, monkeypatch):
        t, policy = task(3, 0.01), ShotPolicy.fixed(640)
        engine = Engine(EngineConfig(shard_size=128))
        keys = set()
        for max_shards, max_shots in [(1, 8192), (8, 8192), (8, 64)]:
            monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", max_shards)
            monkeypatch.setattr(executor_mod, "GROUP_MAX_SHOTS", max_shots)
            keys.add(engine._cache_key(t, 7, policy))
        assert len(keys) == 1


class TestGroupingInvisibleInCache:
    def _cache_blobs(self, cache_dir):
        """(result record bytes by key, syndrome-memo keys).

        Memo contents depend on which process decoded which shard, so
        only their keys are compared.
        """
        memos = {memo_cache_key(i.task.content_hash(), i.task.decoder)
                 for i in sweep_items()}
        files = {p.stem: p.read_bytes()
                 for p in sorted(cache_dir.rglob("*.json"))}
        assert memos <= set(files)
        return ({k: b for k, b in files.items() if k not in memos},
                set(files) & memos)

    def test_cache_records_byte_identical(self, tmp_path, monkeypatch):
        blobs = {}
        for name, max_shards in [("grouped", 8), ("shard-by-shard", 1)]:
            monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", max_shards)
            cache_dir = tmp_path / name
            engine = Engine(EngineConfig(shard_size=128,
                                         cache_dir=str(cache_dir)))
            results = engine.run_sweep(sweep_items())
            assert not any(r.from_cache for r in results)
            blobs[name] = self._cache_blobs(cache_dir)
        assert blobs["grouped"][0]  # the sweep really wrote records
        assert blobs["grouped"] == blobs["shard-by-shard"]

    @pytest.mark.parametrize("first,second", [(8, 1), (1, 8)])
    def test_one_grouping_warms_the_other(self, tmp_path, monkeypatch,
                                          first, second):
        config = EngineConfig(shard_size=128, cache_dir=str(tmp_path))
        monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", first)
        cold = Engine(config).run_sweep(sweep_items())
        monkeypatch.setattr(executor_mod, "GROUP_MAX_SHARDS", second)
        warm = Engine(config).run_sweep(sweep_items())
        assert all(r.from_cache for r in warm)
        assert [ler_tuple(r) for r in cold] == [ler_tuple(r) for r in warm]

    def test_partially_warm_grouped_sweep(self, tmp_path, monkeypatch,
                                          reference):
        items = sweep_items()
        config = EngineConfig(shard_size=128, cache_dir=str(tmp_path))
        with monkeypatch.context() as mp:
            mp.setattr(executor_mod, "GROUP_MAX_SHARDS", 1)
            Engine(config).run_sweep([items[1], items[3]])
        engine = Engine(config)
        results = engine.run_sweep(items)
        assert [r.from_cache for r in results] == [False, True, False, True,
                                                   False, False]
        assert engine.last_fusion.fused_groups > 0
        assert [ler_tuple(r) for r in results] == reference
