"""Tests for the fused sample→decode→tally pipeline.

The load-bearing properties:

* chunking is invisible — chunk sizes 1, 7, 25, 100 and ``shots`` produce
  identical tallies;
* the pipeline is bit-identical to the legacy unpacked
  sample-then-``decode_batch`` path for the same seed, which is what keeps
  every engine result stable across this refactor; and
* the syndrome-level chunk path of :meth:`DecodingPipeline.run` equals the
  per-shot route (``fired_detectors`` + ``decode_fired_batch`` + a
  parity-set tally per shot) counter for counter, memo snapshot included.
"""

import pytest

from repro.core.adaptation import adapt_patch
from repro.decoder import MwpmDecoder, UnionFindDecoder
from repro.decoder import base as decoder_base
from repro.engine import DecodingPipeline, PipelineStats
from repro.engine.pipeline import CHUNK_SHOTS
from repro.engine.executor import Engine, EngineConfig
from repro.engine.tasks import LerPointTask
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer import Circuit, PackedFrameSimulator
from repro.stabilizer.dem import build_detector_error_model
from repro.stabilizer.frame import FrameSimulator
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout


def _circuit(distance=3, p=0.004, rounds=None):
    patch = adapt_patch(RotatedSurfaceCodeLayout(distance), DefectSet.of())
    return build_memory_circuit(patch, CircuitNoiseModel.standard(p),
                                rounds or distance)


def _decoder(circuit, kind="mwpm"):
    dem = build_detector_error_model(circuit)
    return MwpmDecoder(dem) if kind == "mwpm" else UnionFindDecoder(dem)


def _repetition_circuit(n=5, p=0.1, observables=1, detectors=True):
    """Bit-flip repetition code: small enough to vary the detector and
    observable counts freely.  Only the last observable reads a qubit (qubit
    0); the others are empty, so with 70 observables every logical flip
    shows only past index 63."""
    c = Circuit(n)
    c.append("R", list(range(n)))
    c.append("X_ERROR", list(range(n)), p)
    c.append("M", list(range(n)))
    if detectors:
        for i in range(n - 1):
            c.append("DETECTOR", [i, i + 1])
    for k in range(observables):
        c.append("OBSERVABLE_INCLUDE", [0] if k == observables - 1 else [], k)
    return c


class _OutOfRangeMwpm(MwpmDecoder):
    """Predicts an extra observable index past ``num_observables``."""

    def _decode_fired(self, fired):
        return super()._decode_fired(fired) | {self.num_observables + 3}


def _per_shot_route(circuit, decoder, shots, seed, chunk_shots):
    """The per-shot route: sparse tuples, batch decode, parity-set tally."""
    samples = PackedFrameSimulator(circuit).reseed(seed).sample(shots)
    failures = empty = chunks = 0
    for start in range(0, shots, chunk_shots):
        stop = min(start + chunk_shots, shots)
        fired = samples.fired_detectors(start, stop)
        actual = samples.flipped_observables(start, stop)
        predictions = decoder.decode_fired_batch(fired, assume_canonical=True)
        for syndrome, parity, flips in zip(fired, predictions, actual):
            empty += not syndrome
            failures += bool(parity.symmetric_difference(flips))
        chunks += 1
    return failures, empty, chunks


def _assert_matches_per_shot_route(circuit, make_decoder, shots, chunk_shots,
                                   seeds=(3, 4, 3)):
    """Run both routes over the same seeds on equal fresh decoders (so the
    memo carries across runs) and compare every counter and the memo."""
    pipeline = DecodingPipeline(circuit, make_decoder(),
                                chunk_shots=chunk_shots)
    reference = make_decoder()
    for seed in seeds:
        decoded, hits, evicted = (reference.decoded_syndromes,
                                  reference.memo_hits, reference.memo_evictions)
        stats = pipeline.run(shots, seed=seed)
        failures, empty, chunks = _per_shot_route(circuit, reference, shots,
                                                  seed, chunk_shots)
        assert (stats.failures, stats.empty_shots, stats.chunks) \
            == (failures, empty, chunks)
        assert stats.distinct_syndromes == reference.decoded_syndromes - decoded
        assert stats.memo_hits == reference.memo_hits - hits
        assert stats.memo_evictions == reference.memo_evictions - evicted
        assert stats.memo_size == reference.memo_size
    assert pipeline.decoder.shots_decoded == reference.shots_decoded
    assert pipeline.decoder.export_memo() == reference.export_memo()
    return stats


def _legacy_failures(circuit, decoder_kind, shots, seed):
    """The historical unpacked path: sample, dense decode_batch, tally."""
    samples = FrameSimulator(circuit, seed=seed).sample(shots)
    decoded = _decoder(circuit, decoder_kind).decode_batch(samples.detectors)
    return decoded.logical_error_count(samples.observables)


class TestChunkInvariance:
    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    def test_chunk_sizes_never_change_tallies(self, decoder_kind):
        circuit = _circuit()
        shots = 40
        tallies = {}
        for chunk in (1, 7, 25, 100, shots):
            pipeline = DecodingPipeline(circuit, _decoder(circuit, decoder_kind),
                                        chunk_shots=chunk)
            stats = pipeline.run(shots, seed=31)
            tallies[chunk] = stats.failures
            assert stats.shots == shots
            assert stats.chunks == -(-shots // chunk)
        assert len(set(tallies.values())) == 1, tallies

    def test_default_chunk_is_module_constant(self):
        circuit = _circuit()
        assert CHUNK_SHOTS == 1024
        assert DecodingPipeline(circuit, _decoder(circuit)).chunk_shots \
            == CHUNK_SHOTS

    def test_invalid_chunk_rejected(self):
        circuit = _circuit()
        with pytest.raises(ValueError):
            DecodingPipeline(circuit, _decoder(circuit), chunk_shots=0)


class TestBitIdentityWithLegacyPath:
    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    @pytest.mark.parametrize("p", [0.001, 0.006])
    def test_pipeline_matches_unpacked_decode_batch(self, decoder_kind, p):
        circuit = _circuit(p=p)
        shots = 120
        pipeline = DecodingPipeline(circuit, _decoder(circuit, decoder_kind),
                                    chunk_shots=32)
        stats = pipeline.run(shots, seed=77)
        assert stats.failures == _legacy_failures(circuit, decoder_kind,
                                                  shots, seed=77)

    def test_repeat_runs_are_deterministic_and_warm(self):
        circuit = _circuit()
        pipeline = DecodingPipeline(circuit, _decoder(circuit), chunk_shots=16)
        first = pipeline.run(60, seed=5)
        second = pipeline.run(60, seed=5)
        assert first.failures == second.failures
        # The second run decodes nothing new: every syndrome is memoised.
        assert second.distinct_syndromes == 0
        assert second.memo_hits > 0


class TestSyndromeLevelMatchesPerShotRoute:
    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    @pytest.mark.parametrize("p", [0.001, 0.006])
    def test_memory_circuit(self, decoder_kind, p):
        circuit = _circuit(p=p)
        _assert_matches_per_shot_route(
            circuit, lambda: _decoder(circuit, decoder_kind), 600, 128)

    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    def test_memo_evictions(self, decoder_kind, monkeypatch):
        # The 2-entry memo of test_memo_counters_surfaced: LRU order and
        # evictions must follow the per-shot route's first-occurrence order.
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 2)
        circuit = _circuit(p=0.006)
        stats = _assert_matches_per_shot_route(
            circuit, lambda: _decoder(circuit, decoder_kind), 150, 25)
        assert stats.memo_evictions > 0 and stats.memo_size == 2

    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    @pytest.mark.parametrize("chunk", [25, 100])
    def test_unaligned_chunks_and_shots(self, decoder_kind, chunk):
        circuit = _circuit(p=0.002)
        _assert_matches_per_shot_route(
            circuit, lambda: _decoder(circuit, decoder_kind), 4097, chunk,
            seeds=(8,))

    @pytest.mark.parametrize("decoder_kind", ["mwpm", "unionfind"])
    @pytest.mark.parametrize("case", ["all_empty", "no_detectors",
                                      "no_observables", "70_observables"])
    def test_edge_circuits(self, decoder_kind, case):
        circuit = {
            "all_empty": lambda: _repetition_circuit(p=0.0),
            "no_detectors": lambda: _repetition_circuit(detectors=False),
            "no_observables": lambda: _repetition_circuit(observables=0),
            "70_observables": lambda: _repetition_circuit(observables=70),
        }[case]()
        stats = _assert_matches_per_shot_route(
            circuit, lambda: _decoder(circuit, decoder_kind), 4097, 100)
        if case in ("all_empty", "no_detectors"):
            assert stats.empty_shots == stats.shots
        if case == "70_observables":
            assert stats.failures > 0

    def test_out_of_range_prediction_counts_as_mismatch(self):
        circuit = _circuit(p=0.004)
        dem = build_detector_error_model(circuit)
        stats = _assert_matches_per_shot_route(
            circuit, lambda: _OutOfRangeMwpm(dem), 300, 64)
        assert stats.failures == stats.shots - stats.empty_shots


class TestPipelineStats:
    def test_stats_accounting(self):
        circuit = _circuit(p=0.002)
        pipeline = DecodingPipeline(circuit, _decoder(circuit), chunk_shots=25)
        stats = pipeline.run(100, seed=13)
        assert isinstance(stats, PipelineStats)
        assert stats.chunks == 4
        assert 0 <= stats.failures <= stats.shots == 100
        assert 0 <= stats.empty_shots <= stats.shots
        # At p=0.002 the dedup machinery must be doing real work: far fewer
        # distinct decodes than shots.
        assert 1 <= stats.distinct_syndromes < stats.shots
        assert stats.dedup_factor > 1.0

    def test_sample_decode_time_split(self):
        circuit = _circuit(p=0.002)
        pipeline = DecodingPipeline(circuit, _decoder(circuit), chunk_shots=25)
        stats = pipeline.run(100, seed=13)
        assert stats.sample_seconds > 0.0
        assert stats.decode_seconds > 0.0
        assert 0.0 < stats.sample_fraction < 1.0
        # The split never affects the numbers.
        again = DecodingPipeline(circuit, _decoder(circuit),
                                 chunk_shots=25).run(100, seed=13)
        assert again.failures == stats.failures

    def test_shots_must_be_positive(self):
        circuit = _circuit()
        with pytest.raises(ValueError):
            DecodingPipeline(circuit, _decoder(circuit)).run(0)

    def test_memo_counters_surfaced(self, monkeypatch):
        """The syndrome-memo hit/eviction counters flow through the stats
        (and from there into the BENCH decoder artifacts), so
        SYNDROME_MEMO_SIZE can be sized from CI data."""
        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 2)
        circuit = _circuit(p=0.006)
        tiny = DecodingPipeline(circuit, _decoder(circuit), chunk_shots=25)
        stats = tiny.run(150, seed=13)
        # A 2-entry memo cannot hold this run's distinct syndromes: the
        # churn must be visible, and the memo pinned at its limit.
        assert stats.memo_evictions > 0
        assert stats.memo_size == 2
        assert stats.memo_pressure > 0.0

        monkeypatch.setattr(decoder_base, "SYNDROME_MEMO_SIZE", 65536)
        roomy = DecodingPipeline(circuit, _decoder(circuit), chunk_shots=25)
        relaxed = roomy.run(150, seed=13)
        assert relaxed.memo_evictions == 0
        assert relaxed.memo_pressure == 0.0
        assert relaxed.memo_size == relaxed.distinct_syndromes
        # Eviction pressure is observability only — never the numbers.
        assert relaxed.failures == stats.failures


class TestFixedSeedFailureCounts:
    """Frozen end-to-end tallies: the vectorised sampler (and any future
    sampler change) must keep these exact fixed-seed failure counts.

    Captured from the pre-vectorisation pipeline (PR 2) at p=2e-3 with
    seed 20240427 over 4000 shots.
    """

    EXPECTED = {3: 28, 5: 6}

    @pytest.mark.parametrize("distance", [3, 5])
    def test_memory_failure_counts_unchanged(self, distance):
        circuit = _circuit(distance=distance, p=2e-3, rounds=distance)
        pipeline = DecodingPipeline(circuit, _decoder(circuit))
        stats = pipeline.run(4000, seed=20240427)
        assert stats.failures == self.EXPECTED[distance]


class TestEngineIntegration:
    def test_engine_result_matches_legacy_numbers(self):
        # The executor now routes every shard through the pipeline; numbers
        # must stay bit-identical to the pre-pipeline engine (and to the
        # direct legacy path, for single-shard fixed-policy runs).
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = LerPointTask.from_patch("memory", patch, 0.004)
        engine = Engine(EngineConfig())
        result = engine.run_ler(task, shots=300, seed=404)
        circuit = task.build_circuit()
        assert result.failures == _legacy_failures(circuit, "mwpm", 300, seed=404)

    def test_multi_shard_determinism(self):
        patch = adapt_patch(RotatedSurfaceCodeLayout(3), DefectSet.of())
        task = LerPointTask.from_patch("memory", patch, 0.006)
        small_shards = Engine(EngineConfig(shard_size=64))
        big_shards = Engine(EngineConfig(shard_size=4096))
        many = small_shards.run_ler(task, shots=512, seed=9)
        # Shard split changes RNG stream assignment (documented), but the
        # result must be reproducible run to run.
        again = Engine(EngineConfig(shard_size=64)).run_ler(task, shots=512, seed=9)
        assert many.failures == again.failures
        one = big_shards.run_ler(task, shots=512, seed=9)
        assert one.shots == many.shots == 512
