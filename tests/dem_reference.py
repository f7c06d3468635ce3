"""Frozen one-shot detector-error-model builder: the oracle for ``dem.py``.

This is the builder ``repro.stabilizer.dem.build_detector_error_model`` used
before it split into a cached p-free structure pass and a per-p fold: basis
faults enumerated one by one, propagated forward with one boolean column
each, sparse signatures from one ``flatnonzero`` per fault, and a sequential
set-XOR / ``_add`` loop over every channel component.  It is kept verbatim
so the corpus tests (``tests/test_dem_template.py``) and the DEM build
benchmark (``benchmarks/test_dem_build.py``) compare the production builder
against an implementation it cannot accelerate or share bugs with —
probabilities compared with ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.stabilizer.circuit import Circuit
from repro.stabilizer.dem import DemError, DetectorErrorModel

__all__ = ["build_detector_error_model"]


def _xor_combine(p1: float, p2: float) -> float:
    """Probability that an odd number of two independent events occurs."""
    return p1 * (1 - p2) + p2 * (1 - p1)


_DEP2_COMPONENTS: List[Tuple[int, ...]] = []
# Basis-fault membership of each of the 15 DEPOLARIZE2 components.
# Basis order per pair: (Xa, Za, Xb, Zb).  Component code c in 1..15 encodes
# (pa, pb) base 4 with 0=I, 1=X, 2=Y, 3=Z.
for _code in range(1, 16):
    _pa, _pb = _code // 4, _code % 4
    members = []
    if _pa in (1, 2):
        members.append(0)
    if _pa in (2, 3):
        members.append(1)
    if _pb in (1, 2):
        members.append(2)
    if _pb in (2, 3):
        members.append(3)
    _DEP2_COMPONENTS.append(tuple(members))


def _enumerate_basis_faults(circuit: Circuit) -> Tuple[List[Tuple[int, int, str]],
                                                       List[Tuple[float, Tuple[int, ...]]]]:
    """Walk the circuit and list basis faults plus channel components.

    Returns
    -------
    basis_faults:
        List of ``(instruction_index, qubit, pauli)`` triples; position in the
        list is the basis-fault id.
    components:
        List of ``(probability, basis_fault_ids)`` tuples, one per Pauli
        component of every noise channel.
    """
    basis_faults: List[Tuple[int, int, str]] = []
    components: List[Tuple[float, Tuple[int, ...]]] = []

    for idx, inst in enumerate(circuit.instructions):
        name = inst.name
        p = inst.arg
        if p == 0.0 and name in ("X_ERROR", "Z_ERROR", "Y_ERROR",
                                 "DEPOLARIZE1", "DEPOLARIZE2"):
            continue
        if name == "X_ERROR":
            for q in inst.targets:
                fid = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                components.append((p, (fid,)))
        elif name == "Z_ERROR":
            for q in inst.targets:
                fid = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p, (fid,)))
        elif name == "Y_ERROR":
            for q in inst.targets:
                fx = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                fz = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p, (fx, fz)))
        elif name == "DEPOLARIZE1":
            for q in inst.targets:
                fx = len(basis_faults)
                basis_faults.append((idx, q, "X"))
                fz = len(basis_faults)
                basis_faults.append((idx, q, "Z"))
                components.append((p / 3, (fx,)))        # X
                components.append((p / 3, (fx, fz)))     # Y
                components.append((p / 3, (fz,)))        # Z
        elif name == "DEPOLARIZE2":
            for a, b in inst.target_pairs():
                base = len(basis_faults)
                basis_faults.append((idx, a, "X"))
                basis_faults.append((idx, a, "Z"))
                basis_faults.append((idx, b, "X"))
                basis_faults.append((idx, b, "Z"))
                for comp in _DEP2_COMPONENTS:
                    components.append((p / 15, tuple(base + m for m in comp)))
    return basis_faults, components


def _propagate_basis_faults(
    circuit: Circuit, basis_faults: Sequence[Tuple[int, int, str]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Propagate every basis fault through the circuit in one vectorised pass.

    Returns boolean arrays ``det_sig`` of shape ``(num_detectors, F)`` and
    ``obs_sig`` of shape ``(num_observables, F)``.
    """
    n = circuit.num_qubits
    f = len(basis_faults)
    x = np.zeros((n, f), dtype=bool)
    z = np.zeros((n, f), dtype=bool)
    meas = np.zeros((circuit.num_measurements, f), dtype=bool)
    det = np.zeros((circuit.num_detectors, f), dtype=bool)
    obs = np.zeros((max(circuit.num_observables, 1), f), dtype=bool)

    # Group basis-fault injections by instruction index for O(1) lookup.
    inject: Dict[int, List[Tuple[int, int, str]]] = {}
    for fid, (idx, q, pauli) in enumerate(basis_faults):
        inject.setdefault(idx, []).append((fid, q, pauli))

    m_idx = 0
    d_idx = 0
    for idx, inst in enumerate(circuit.instructions):
        name = inst.name
        # Inject the basis faults that occur *at* this noise channel before
        # continuing propagation (the fault happens where the channel sits).
        if idx in inject:
            for fid, q, pauli in inject[idx]:
                if pauli == "X":
                    x[q, fid] = True
                else:
                    z[q, fid] = True
        if name == "CX":
            for c, t in inst.target_pairs():
                x[t] ^= x[c]
                z[c] ^= z[t]
        elif name == "H":
            for q in inst.targets:
                x[q], z[q] = z[q].copy(), x[q].copy()
        elif name == "CZ":
            for a, b in inst.target_pairs():
                z[a] ^= x[b]
                z[b] ^= x[a]
        elif name == "S":
            for q in inst.targets:
                z[q] ^= x[q]
        elif name in ("R", "RX"):
            for q in inst.targets:
                x[q] = False
                z[q] = False
        elif name == "M":
            for q in inst.targets:
                meas[m_idx] = x[q]
                m_idx += 1
        elif name == "MX":
            for q in inst.targets:
                meas[m_idx] = z[q]
                m_idx += 1
        elif name == "MR":
            for q in inst.targets:
                meas[m_idx] = x[q]
                x[q] = False
                z[q] = False
                m_idx += 1
        elif name == "DETECTOR":
            acc = np.zeros(f, dtype=bool)
            for mi in inst.targets:
                acc ^= meas[mi]
            det[d_idx] = acc
            d_idx += 1
        elif name == "OBSERVABLE_INCLUDE":
            o = int(inst.arg)
            for mi in inst.targets:
                obs[o] ^= meas[mi]
        # Pauli gates, noise probabilities and TICKs do not move the frame.
    return det, obs[: circuit.num_observables]


def build_detector_error_model(
    circuit: Circuit, decompose: bool = True
) -> DetectorErrorModel:
    """Extract the detector error model of a noisy circuit.

    Parameters
    ----------
    circuit:
        The noisy circuit (detectors and observables already annotated).
    decompose:
        When True (default), error components that flip more than two
        detectors are replaced by their constituent basis faults so that the
        result is graph-like.  When False they are kept as hyperedges.
    """
    circuit.validate()
    basis_faults, components = _enumerate_basis_faults(circuit)
    if not basis_faults:
        return DetectorErrorModel(circuit.num_detectors, circuit.num_observables, [])
    det_sig, obs_sig = _propagate_basis_faults(circuit, basis_faults)

    # Pre-compute sparse signatures per basis fault.
    basis_dets: List[Tuple[int, ...]] = []
    basis_obs: List[Tuple[int, ...]] = []
    for fid in range(len(basis_faults)):
        basis_dets.append(tuple(int(i) for i in np.flatnonzero(det_sig[:, fid])))
        basis_obs.append(tuple(int(i) for i in np.flatnonzero(obs_sig[:, fid])))

    accumulated: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float] = {}

    def _add(dets: Tuple[int, ...], obs: Tuple[int, ...], p: float) -> None:
        if not dets and not obs:
            return
        key = (dets, obs)
        accumulated[key] = _xor_combine(accumulated.get(key, 0.0), p)

    for p, fault_ids in components:
        if p <= 0.0:
            continue
        det_acc: set[int] = set()
        obs_acc: set[int] = set()
        for fid in fault_ids:
            det_acc ^= set(basis_dets[fid])
            obs_acc ^= set(basis_obs[fid])
        dets = tuple(sorted(det_acc))
        obs = tuple(sorted(obs_acc))
        if len(dets) <= 2 or not decompose:
            _add(dets, obs, p)
        else:
            # Independent decomposition: attribute the component probability
            # to each constituent basis fault separately.
            for fid in fault_ids:
                _add(basis_dets[fid], basis_obs[fid], p)

    errors = [
        DemError(probability=pv, detectors=dets, observables=obs)
        for (dets, obs), pv in sorted(accumulated.items())
        if pv > 0.0
    ]
    return DetectorErrorModel(circuit.num_detectors, circuit.num_observables, errors)
