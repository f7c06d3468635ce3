"""Syndrome-memo LRU and on-disk memo persistence.

Two decode-side behaviours:

* the cross-batch syndrome memo evicts least-recently-used (hits refresh
  recency) instead of FIFO, so hot syndromes survive long varied sweeps;
* the memo round-trips through the content-addressed on-disk cache
  (keyed by task hash + decoder name), so a restarted worker's first
  shard starts warm (``memo_size > 0`` before any decode).

Where memos are saved has one config source: the dispatching engine's
``EngineConfig.cache_dir``, carried with every dispatch to whichever
process (serial, pool worker, socket worker) runs the shard.  Ambient
``REPRO_CACHE`` and the order in which pools fork play no part.  (The
socket-worker case runs in ``tests/test_backends.py``, next to its fleet.)
"""

import numpy as np
import pytest

import repro.engine.executor as ex
from repro.core import adapt_patch
from repro.decoder import base as decoder_base
from repro.decoder.base import BatchDecoderBase
from repro.engine import Engine, EngineConfig, LerPointTask, ShotPolicy, SweepItem
from repro.engine.cache import ResultCache
from repro.engine.pipeline import DecodingPipeline, memo_cache_key
from repro.noise import DefectSet
from repro.surface_code import RotatedSurfaceCodeLayout


class CountingDecoder(BatchDecoderBase):
    """Deterministic fake decoder: parity = {min fired index}."""

    num_observables = 2

    def __init__(self):
        super().__init__()
        self.calls = []

    def _decode_fired(self, fired):
        self.calls.append(fired)
        return frozenset({min(fired) % self.num_observables})


def _task(p=0.003, decoder="mwpm"):
    patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
    return LerPointTask.from_patch("memory", patch, p, decoder=decoder)


@pytest.fixture(autouse=True)
def _clean_memo_state(monkeypatch):
    """Isolate each test from ambient cache config and warm task memos."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    ex._TASK_MEMO.clear()
    yield
    ex._TASK_MEMO.clear()


# ----------------------------------------------------------------------
# LRU eviction
# ----------------------------------------------------------------------
class TestLruMemo:
    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 2)
        dec = CountingDecoder()
        dec.decode_fired((1,))          # memo: {1}
        dec.decode_fired((2,))          # memo: {1, 2}
        dec.decode_fired((1,))          # hit refreshes (1) -> {2, 1}
        dec.decode_fired((3,))          # evicts (2), the true LRU entry
        assert dec.memo_evictions == 1
        assert (1,) in dec._syndrome_memo      # survived thanks to the hit
        assert (2,) not in dec._syndrome_memo  # FIFO would have kept this
        dec.decode_fired((1,))
        assert dec.calls.count((1,)) == 1      # never re-decoded

    def test_fifo_regression_shape(self, monkeypatch):
        # Without an interleaved hit, LRU degenerates to FIFO order.
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 2)
        dec = CountingDecoder()
        for key in ((1,), (2,), (3,)):
            dec.decode_fired(key)
        assert (1,) not in dec._syndrome_memo
        assert dec.memo_evictions == 1

    def test_eviction_counter_semantics(self, monkeypatch):
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 3)
        dec = CountingDecoder()
        for i in range(10):
            dec.decode_fired((i,))
        assert dec.memo_evictions == 7
        assert dec.memo_size == 3


# ----------------------------------------------------------------------
# Export / import
# ----------------------------------------------------------------------
class TestMemoExportImport:
    def test_round_trip(self):
        a = CountingDecoder()
        for key in ((1,), (2, 5), (3,)):
            a.decode_fired(key)
        b = CountingDecoder()
        assert b.import_memo(a.export_memo()) == 3
        assert b._syndrome_memo == a._syndrome_memo
        b.decode_fired((2, 5))
        assert b.calls == []            # pure memo hit, no decode
        assert b.memo_hits == 1

    def test_import_respects_limit_keeps_hottest(self, monkeypatch):
        a = CountingDecoder()
        for i in range(6):
            a.decode_fired((i,))
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 2)
        b = CountingDecoder()
        assert b.import_memo(a.export_memo()) == 2
        # export is coldest-first, so the hottest tail survives.
        assert set(b._syndrome_memo) == {(4,), (5,)}

    def test_import_skips_malformed(self):
        b = CountingDecoder()
        entries = [[[1], [0]], "garbage", [[2], [1]], [[], [0]]]
        assert b.import_memo(entries) == 2
        assert set(b._syndrome_memo) == {(1,), (2,)}

    def test_import_disabled_memo(self, monkeypatch):
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 0)
        b = CountingDecoder()
        assert b.import_memo([[[1], [0]]]) == 0
        assert b.memo_size == 0


# ----------------------------------------------------------------------
# On-disk persistence
# ----------------------------------------------------------------------
class TestMemoPersistence:
    def test_persist_and_preload_cycle(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        task = _task()
        circuit = task.build_circuit()

        def pipeline_for():
            from repro.decoder.matching import MatchingGraph, MwpmDecoder
            from repro.stabilizer.dem import build_detector_error_model
            graph = MatchingGraph(build_detector_error_model(circuit))
            return DecodingPipeline(circuit, MwpmDecoder(graph))

        p1 = pipeline_for()
        assert p1.attach_memo_store(cache, task.content_hash(),
                                    task.decoder) == 0
        p1.run(4000, seed=20240427)
        assert p1.persist_memo() is True
        assert p1.persist_memo() is False      # unchanged since last save
        size = p1.decoder.memo_size
        assert size > 0

        # A brand-new pipeline (fresh process stand-in) starts warm: the
        # memo is populated before any shard has been decoded.
        p2 = pipeline_for()
        assert p2.decoder.memo_size == 0
        imported = p2.attach_memo_store(cache, task.content_hash(),
                                        task.decoder)
        assert imported == size
        assert p2.preloaded_memo_entries == size
        assert p2.decoder.memo_size == size
        assert p2.decoder.decoded_syndromes == 0

        # Identical numbers either way (decoding is a pure function).
        s1 = pipeline_for().run(4000, seed=20240427)
        s2 = p2.run(4000, seed=20240427)
        assert s2.failures == s1.failures
        assert s2.distinct_syndromes < s1.distinct_syndromes  # warm start

    def test_memo_keys_are_decoder_scoped(self, tmp_path):
        h = "a" * 64
        assert memo_cache_key(h, "mwpm") != memo_cache_key(h, "unionfind")
        assert memo_cache_key(h, "mwpm") != memo_cache_key("b" * 64, "mwpm")

    def test_context_for_roundtrip(self, tmp_path):
        task = _task()
        p1, _ = ex._context_for(task, str(tmp_path))
        p1.run(4000, seed=20240427)
        # _run_ler_shard persists after every shard; emulate one shard.
        f1 = ex._run_ler_shard(task, np.random.SeedSequence(1), 1000,
                               str(tmp_path))
        ex._TASK_MEMO.clear()
        p2, _ = ex._context_for(task, str(tmp_path))
        assert p2.preloaded_memo_entries > 0
        assert p2.decoder.memo_size > 0      # warm before the first shard
        # Bit-identity: the warm pipeline reproduces the cold shard result.
        ex._TASK_MEMO[(task.content_hash(), str(tmp_path))] = (p2, 0)
        f2 = ex._run_ler_shard(task, np.random.SeedSequence(1), 1000,
                               str(tmp_path))
        assert f2[0] == f1[0]

    def test_unionfind_memo_isolated(self, tmp_path):
        mwpm, uf = _task(), _task(decoder="unionfind")
        pm, _ = ex._context_for(mwpm, str(tmp_path))
        pm.run(2000, seed=5)
        pm.persist_memo()
        cache = ResultCache(str(tmp_path))
        assert cache.get(memo_cache_key(mwpm.content_hash(), "mwpm"))
        assert cache.get(memo_cache_key(uf.content_hash(),
                                        "unionfind")) is None


# ----------------------------------------------------------------------
# One config source: the engine's cache_dir decides where memos go
# ----------------------------------------------------------------------
def _items():
    return [SweepItem(_task(0.01), ShotPolicy.fixed(640), 1),
            SweepItem(_task(0.02), ShotPolicy.fixed(256), 2),
            SweepItem(_task(0.015, decoder="unionfind"),
                      ShotPolicy.fixed(512), 3)]


def _memo_keys(items):
    return {memo_cache_key(i.task.content_hash(), i.task.decoder)
            for i in items}


def _saved_memos(cache_dir):
    """Keys of the syndrome-memo records under ``cache_dir``."""
    cache = ResultCache(str(cache_dir))
    return {k for k in cache.keys()
            if cache.get(k)["kind"] == "syndrome_memo"}


def _files(cache_dir):
    return {p.relative_to(cache_dir): p.read_bytes()
            for p in sorted(cache_dir.rglob("*.json"))}


_BACKENDS = {"serial": dict(backend="serial"),
             "process-2": dict(max_workers=2)}


class TestMemoFollowsEngineConfig:
    @pytest.mark.parametrize("backend", sorted(_BACKENDS))
    def test_engine_cache_dir_saves_every_memo(self, tmp_path, backend):
        engine = Engine(EngineConfig(shard_size=128, cache_dir=str(tmp_path),
                                     **_BACKENDS[backend]))
        engine.run_sweep(_items())
        assert _saved_memos(tmp_path) == _memo_keys(_items())

    def test_pool_forked_before_any_cache_still_saves(self, tmp_path,
                                                      monkeypatch):
        # Fork the pool's workers while no cache is configured anywhere;
        # a variable set after the fork is invisible to them.
        warm = Engine(EngineConfig(max_workers=2, shard_size=128))
        warm.run_sweep(_items()[:2])
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        engine = Engine(EngineConfig(max_workers=2, shard_size=128,
                                     cache_dir=str(tmp_path)))
        engine.run_sweep([SweepItem(i.task, i.policy, i.seed + 10)
                          for i in _items()])
        assert _saved_memos(tmp_path) == _memo_keys(_items())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ambient_repro_cache_is_ignored(self, tmp_path, monkeypatch,
                                            workers):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        engine = Engine(EngineConfig(max_workers=workers, shard_size=128))
        engine.run_sweep(_items())
        assert _files(tmp_path) == {}

    @pytest.mark.parametrize("backend", sorted(_BACKENDS))
    def test_warm_pipeline_never_writes_where_not_asked(self, tmp_path,
                                                        backend):
        """One task under cache A, then B, then none: A and B each get a
        memo record, and the cache-less run writes nowhere, although warm
        pipelines bound to A and B are still in the task memos."""
        item = _items()[0]
        dirs = [tmp_path / "a", tmp_path / "b"]
        for seed, cache_dir in enumerate(dirs):
            Engine(EngineConfig(shard_size=128, cache_dir=str(cache_dir),
                                **_BACKENDS[backend])).run_sweep(
                [SweepItem(item.task, item.policy, seed)])
        for d in dirs:
            assert _saved_memos(d) == _memo_keys([item])
        before = {d: _files(d) for d in dirs}
        Engine(EngineConfig(shard_size=128, **_BACKENDS[backend])).run_sweep(
            [SweepItem(item.task, ShotPolicy.fixed(2048), 99)])
        assert {d: _files(d) for d in dirs} == before
        assert [p.name for p in sorted(tmp_path.iterdir())] == ["a", "b"]
