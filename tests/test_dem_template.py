"""The template DEM builder against the frozen one-shot oracle.

``build_detector_error_model`` caches a p-free structure per circuit
structure and folds the probabilities on every call.  Its output must equal
the one-shot builder kept in ``tests/dem_reference.py`` as a ``DemError``
list — probabilities compared with ``==`` — over patches x noise x rounds x
``decompose``, and the template cache must be safe to share between threads
and between callers.
"""

import sys
import threading
from dataclasses import replace

import pytest

from dem_reference import build_detector_error_model as reference_dem
from repro.core import adapt_patch
from repro.engine import CutoffCellTask
from repro.noise import CircuitNoiseModel, DefectSet
from repro.stabilizer import Circuit, build_detector_error_model
from repro.stabilizer import dem as dem_module
from repro.stabilizer.circuit import NOISE_CHANNELS
from repro.surface_code import RotatedSurfaceCodeLayout, build_memory_circuit
from repro.surface_code.layout import StabilityLayout

P_SWEEP = (0.0, 1e-4, 0.004, 0.012)
RESET_FACTORS = (0.0, 0.5)


def _defect_free(d):
    return adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())


def _defective_d5():
    patch = adapt_patch(RotatedSurfaceCodeLayout(5), DefectSet.of(qubits=[(5, 5)]))
    assert patch.valid and patch.super_stabilizers
    return patch


PATCHES = {"d3": lambda: _defect_free(3), "d5": lambda: _defect_free(5),
           "d7": lambda: _defect_free(7), "d5-defective": _defective_d5}


def _memory_circuit(name, p, reset_factor, rounds):
    patch = PATCHES[name]()
    noise = replace(CircuitNoiseModel.standard(p), reset_factor=reset_factor)
    return build_memory_circuit(patch, noise, rounds)


def _cutoff_circuit(p, reset_factor, rounds):
    layout = StabilityLayout(4)
    bad = (3, 3)
    noise = replace(CircuitNoiseModel.standard(p),
                    reset_factor=reset_factor).with_bad_qubit(bad, 0.05)
    cell = CutoffCellTask.from_patch("stability", adapt_patch(layout, DefectSet.of()),
                                     p, rounds=rounds, noise=noise)
    cell = replace(cell, strategy="keep", bad_qubit_error_rate=0.05)
    assert cell.noise.to_model().bad_qubits
    return cell.build_circuit()


def _assert_matches_reference(circuit, decompose):
    got = build_detector_error_model(circuit, decompose=decompose)
    want = reference_dem(circuit, decompose=decompose)
    assert (got.num_detectors, got.num_observables) == \
        (want.num_detectors, want.num_observables)
    assert got.errors == want.errors  # DemError ==: probabilities exact
    return got


def _with_zeroed_channel(circuit):
    """A copy of ``circuit`` whose first non-zero noise channel has p=0."""
    out = Circuit(circuit.num_qubits)
    zeroed = False
    for inst in circuit.instructions:
        arg = inst.arg
        if not zeroed and inst.name in NOISE_CHANNELS and arg != 0.0:
            arg, zeroed = 0.0, True
        out.append(inst.name, inst.targets, arg)
    assert zeroed
    return out


# ----------------------------------------------------------------------
# Corpus: patches x reset noise x p x rounds x decompose
# ----------------------------------------------------------------------
# Full product up to d=5; d=7 (the slowest oracle) pairs each reset factor
# with one decompose value, which still covers both of each.
_CASES = [(name, rounds, reset, decompose)
          for name, d in (("d3", 3), ("d5", 5), ("d7", 7), ("d5-defective", 5))
          for rounds in sorted({1, 3, d})
          for reset in RESET_FACTORS
          for decompose in (True, False)
          if d < 7 or decompose == (reset == 0.0)]


def _case_id(case):
    name, rounds, reset, decompose = case
    return f"{name}-r{rounds}-reset{reset}-{'decomp' if decompose else 'hyper'}"


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_memory_corpus_matches_reference(case):
    name, rounds, reset, decompose = case
    for p in P_SWEEP:
        dem = _assert_matches_reference(
            _memory_circuit(name, p, reset, rounds), decompose)
        assert (len(dem) == 0) == (p == 0.0)


@pytest.mark.parametrize("rounds", [1, 3, 4])
@pytest.mark.parametrize("reset", RESET_FACTORS)
@pytest.mark.parametrize("decompose", [True, False])
def test_cutoff_cell_with_bad_qubit_matches_reference(rounds, reset, decompose):
    for p in P_SWEEP:
        _assert_matches_reference(_cutoff_circuit(p, reset, rounds), decompose)


def test_zeroed_channel_matches_reference():
    circuit = _with_zeroed_channel(_memory_circuit("d5-defective", 0.008, 0.5, 3))
    _assert_matches_reference(circuit, True)


# ----------------------------------------------------------------------
# Template keys and reuse
# ----------------------------------------------------------------------
def test_p_sweep_reuses_one_template():
    dem_module._TEMPLATES.clear()
    circuits = [_memory_circuit("d5", p, 0.0, 5) for p in (1e-4, 0.004, 0.012)]
    keys = [dem_module._structure_key(c, True)[0] for c in circuits]
    assert keys[0] == keys[1] == keys[2]
    build_detector_error_model(circuits[0])
    template = dem_module._TEMPLATES[keys[0]]
    for circuit in circuits[1:]:
        _assert_matches_reference(circuit, True)
        assert dem_module._TEMPLATES[keys[0]] is template  # a cache hit
    assert len(dem_module._TEMPLATES) == 1


def test_key_separates_zero_channels_and_decompose():
    circuit = _memory_circuit("d3", 0.004, 0.0, 3)
    key, args = dem_module._structure_key(circuit, True)
    zeroed_key, zeroed_args = dem_module._structure_key(
        _with_zeroed_channel(circuit), True)
    assert zeroed_key != key
    assert len(zeroed_args) == len(args) - 1
    assert dem_module._structure_key(circuit, False)[0] != key
    other_p = _memory_circuit("d3", 0.012, 0.0, 3)
    assert dem_module._structure_key(other_p, True)[0] == key


def test_templates_are_read_only():
    circuit = _memory_circuit("d3", 0.004, 0.0, 3)
    key, _ = dem_module._structure_key(circuit, True)
    build_detector_error_model(circuit)
    template = dem_module._TEMPLATES[key]
    for arr in (template.order, template.slot, template.divisor):
        assert not arr.flags.writeable


def test_each_build_returns_a_fresh_error_list():
    circuit = _memory_circuit("d3", 0.004, 0.0, 3)
    first = build_detector_error_model(circuit)
    want = list(first.errors)
    first.errors.clear()
    first.errors.append(want[0])
    second = build_detector_error_model(circuit)
    assert second.errors is not first.errors
    assert second.errors == want


def test_invalid_circuit_rejected_on_template_miss():
    c = Circuit(1)
    c.append("R", [0])
    c.append("X_ERROR", [0], 0.1)
    c.append("M", [0])
    c.append("DETECTOR", [0])
    c.num_qubits = 0  # targets now exceed num_qubits
    with pytest.raises(ValueError):
        build_detector_error_model(c)


# ----------------------------------------------------------------------
# Thread safety of the template LRU
# ----------------------------------------------------------------------
def test_concurrent_mixed_builds_match_serial(monkeypatch):
    """8 threads (more than cores) build 16 structures at 2 noise rates each
    through a 3-entry LRU, so misses, hits and evictions interleave."""
    bound = 3
    monkeypatch.setattr(dem_module, "DEM_TEMPLATE_CACHE_SIZE", bound)
    jobs = [(_memory_circuit(name, p, reset, rounds), decompose)
            for name, rounds in (("d3", 3), ("d3", 1), ("d5", 1),
                                 ("d5-defective", 2))
            for reset in RESET_FACTORS
            for decompose in (True, False)
            for p in (0.004, 0.012)]
    serial = [reference_dem(c, decompose=dec).errors for c, dec in jobs]
    dem_module._TEMPLATES.clear()

    barrier = threading.Barrier(8, timeout=60)
    results = {}
    errors = []

    def worker(tid):
        try:
            barrier.wait()
            shift = tid * len(jobs) // 8
            order = list(range(shift, len(jobs))) + list(range(shift))
            if tid % 2:
                order.reverse()
            for i in order:
                circuit, decompose = jobs[i]
                results[(tid, i)] = build_detector_error_model(
                    circuit, decompose=decompose).errors
                assert len(dem_module._TEMPLATES) <= bound
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(results) == 8 * len(jobs)
    for (tid, i), got in results.items():
        assert got == serial[i], (tid, i)
    assert len(dem_module._TEMPLATES) <= bound
