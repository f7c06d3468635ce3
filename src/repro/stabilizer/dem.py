"""Detector-error-model (DEM) extraction from noisy stabilizer circuits.

A DEM is the decoder-facing summary of a noisy circuit: a list of independent
error mechanisms, each with a probability, the set of detectors it flips and
the set of logical observables it flips.  It plays the role of
``stim.Circuit.detector_error_model(decompose_errors=True)``.

Extraction strategy
-------------------
Pauli-frame propagation is linear over GF(2): the detector signature of a
product of Pauli faults is the XOR of the signatures of its factors, and no
signature depends on a noise probability.  Extraction therefore splits into
a p-free *structure pass*, cached per circuit structure, and a cheap
*per-p fold*.

Structure pass (whole-array, once per structure):

1. Enumerate *basis faults* - single-qubit X or Z faults at a specific point
   in the circuit, one for every qubit touched by every non-zero noise
   channel - and every channel's Pauli components (e.g. the 15 equally
   likely two-qubit Paulis of ``DEPOLARIZE2``) as rows of at most four
   basis-fault ids, from one flat array of noise targets.
2. Propagate all basis faults at once by walking the circuit *backwards*
   with one packed bit row per qubit and Pauli: the detectors and
   observables an X or Z fault on that qubit would flip from that point on.
   A basis fault's signature is its row at the point it occurs; only gates,
   resets and measurements change the rows.
3. XOR each component's packed signature from its basis rows and count its
   detectors.  Components that flip more than two detectors are decomposed
   into their constituent basis faults (the standard independent-
   decomposition approximation used by matching decoders), so that every
   error mechanism in the final DEM touches at most two detectors and maps
   onto a matching-graph edge.
4. Group the resulting contributions by (detectors, observables) key: the
   sorted keys plus a ``(depth, keys)`` matrix of contribution indices whose
   column lists one key's contributions in circuit order.

Per-p fold: a component's probability is its channel's argument divided by
1, 3 or 15; probabilities of mechanisms with one key combine with the XOR
rule ``p <- p1 (1-p2) + p2 (1-p1)``, applied to the matrix one depth row at
a time.  Those are the float operations, in the order, of a sequential loop
over every component, so the probabilities are bit-identical to it; keys
whose probability folds to zero are dropped.

Template LRU: structures are keyed by instruction names, targets, non-noise
arguments, a zero/non-zero flag per noise argument and ``decompose``, and
kept in a small lock-guarded per-process LRU (:data:`DEM_TEMPLATE_CACHE_SIZE`
entries), so a sweep over noise rates on one geometry pays one structure
pass.  Every build returns a fresh :class:`DetectorErrorModel`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .bitpack import row_popcounts
from .circuit import NOISE_CHANNELS, Circuit
from .packed import _idx, _odd_multiplicity, _pair_groups

__all__ = ["DemError", "DetectorErrorModel", "build_detector_error_model"]


@dataclass(frozen=True)
class DemError:
    """A single independent error mechanism.

    Attributes
    ----------
    probability:
        Probability that this mechanism fires in one shot.
    detectors:
        Sorted tuple of detector indices flipped.
    observables:
        Sorted tuple of logical-observable indices flipped.
    """

    probability: float
    detectors: Tuple[int, ...]
    observables: Tuple[int, ...]

    def is_graphlike(self) -> bool:
        return len(self.detectors) <= 2


@dataclass
class DetectorErrorModel:
    """A collection of independent error mechanisms plus counts."""

    num_detectors: int
    num_observables: int
    errors: List[DemError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.errors)

    def __iter__(self):
        return iter(self.errors)

    def total_error_probability_bound(self) -> float:
        """Union bound on the probability that any mechanism fires."""
        return float(min(1.0, sum(e.probability for e in self.errors)))

    def undetectable_logical_errors(self) -> List[DemError]:
        """Mechanisms that flip an observable without flipping any detector.

        A correct surface-code circuit should have none of these; their
        presence indicates a distance-0 construction bug.
        """
        return [e for e in self.errors if not e.detectors and e.observables]


def _xor_combine(p1, p2):
    """Probability that an odd number of two independent events occurs.

    Elementwise on arrays too: the per-p fold combines a whole row of keys
    per call.
    """
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

# Noise channels by kind code.  Per channel: the Paulis of the basis faults
# each target contributes (0 = X, 1 = Z), the components of one unit (a
# target, or a DEPOLARIZE2 pair) as offsets into the unit's basis faults,
# and the divisor that turns the channel argument into a component
# probability.
_CHANNELS = (
    ("X_ERROR", (0,), ((0,),), 1.0),
    ("Z_ERROR", (1,), ((0,),), 1.0),
    ("Y_ERROR", (0, 1), ((0, 1),), 1.0),
    ("DEPOLARIZE1", (0, 1), ((0,), (0, 1), (1,)), 3.0),
    ("DEPOLARIZE2", (0, 1), tuple(_DEP2_COMPONENTS), 15.0),
)
_KIND = {name: k for k, (name, *_) in enumerate(_CHANNELS)}
_DEP2 = _KIND["DEPOLARIZE2"]
_FAULTS_PER_TARGET = np.array([len(c[1]) for c in _CHANNELS])
_FAULT_PAULI = np.array([(c[1] * 2)[:2] for c in _CHANNELS])
_COMPONENTS_PER_UNIT = np.array([len(c[2]) for c in _CHANNELS])
_FIRST_COMPONENT = np.cumsum(_COMPONENTS_PER_UNIT) - _COMPONENTS_PER_UNIT
_DIVISOR = np.array([c[3] for c in _CHANNELS])
# Component table: offsets of each component's basis faults, -1 padded.
_COMPONENT_OFFSETS = np.array([comp + (-1,) * (4 - len(comp))
                               for c in _CHANNELS for comp in c[2]])

# Instructions that change the backward sensitivity rows.
_FRAME_OPS = frozenset({"CX", "CZ", "H", "S", "R", "RX", "M", "MX", "MR"})


@dataclass(frozen=True, eq=False)
class _DemTemplate:
    """The p-free structure of one circuit's DEM (see module docstring).

    ``keys[k]`` is the sorted ``(detectors, observables)`` key of mechanism
    ``k``; column ``k`` of ``order`` lists its contributions in sequential
    order, padded with the zero-probability contribution ``len(slot)``.
    Contribution ``c`` carries probability ``args[slot[c]] / divisor[c]``,
    where ``args`` are the circuit's non-zero noise arguments in order.
    """

    num_detectors: int
    num_observables: int
    keys: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    order: np.ndarray
    slot: np.ndarray
    divisor: np.ndarray

    def fold(self, args: List[float]) -> List[DemError]:
        """The mechanisms at the given noise arguments, in key order."""
        probs = np.append(np.asarray(args)[self.slot] / self.divisor, 0.0)
        acc = np.zeros(len(self.keys))
        for row in probs[self.order]:
            acc = _xor_combine(acc, row)
        return [DemError(probability=pv, detectors=dets, observables=obs)
                for (dets, obs), pv in zip(self.keys, acc.tolist())
                if pv > 0.0]


def _structure_key(circuit: Circuit, decompose: bool) -> Tuple[tuple, List[float]]:
    """``(structure key, non-zero noise arguments in circuit order)``."""
    entries = []
    args: List[float] = []
    for inst in circuit.instructions:
        if inst.name in NOISE_CHANNELS:
            live = inst.arg != 0.0
            if live:
                args.append(inst.arg)
            entries.append((inst.name, inst.targets, live))
        else:
            entries.append((inst.name, inst.targets, inst.arg))
    key = (bool(decompose), circuit.num_qubits, circuit.num_measurements,
           circuit.num_detectors, tuple(entries))
    return key, args


def _step_back(rows: np.ndarray, n: int, meas: np.ndarray, op: tuple) -> None:
    """Carry the sensitivity rows backwards across one frame-changing op.

    ``rows[q]`` / ``rows[n + q]`` hold the detectors and observables an X / Z
    fault on qubit ``q`` flips from this point on; ``meas[m]`` those that
    read measurement ``m``.  Each update is the transpose of the forward
    Pauli-frame rule (e.g. CX: ``x[t] ^= x[c]; z[c] ^= z[t]``).
    """
    kind, data = op
    if kind == "CX":
        for c, t in reversed(data):  # hazard-free groups, applied in reverse
            rows[c] ^= rows[t]
            rows[n + t] ^= rows[n + c]
    elif kind == "CZ":
        for a, b in reversed(data):
            rows[a] ^= rows[n + b]
            rows[b] ^= rows[n + a]
    elif kind == "H":
        rows[data], rows[n + data] = rows[n + data], rows[data]
    elif kind == "S":
        rows[data] ^= rows[n + data]
    elif kind == "RESET":
        rows[data] = 0
        rows[n + data] = 0
    else:
        targets, m0, dup = data
        read = meas[m0:m0 + targets.size]
        if kind == "MR" and dup:
            # A repeated qubit must observe its own reset: undo target by
            # target, last first.
            for q, r in zip(targets[::-1], read[::-1]):
                rows[q] = r
                rows[n + q] = 0
        elif kind == "MR":
            rows[targets] = read
            rows[n + targets] = 0
        else:
            dest = targets if kind == "M" else n + targets
            if dup:
                np.bitwise_xor.at(rows, dest, read)
            else:
                rows[dest] ^= read


def _structure_pass(circuit: Circuit, decompose: bool) -> _DemTemplate:
    """Build the p-free DEM structure of ``circuit`` (module docstring 1-4)."""
    n = circuit.num_qubits
    num_det = circuit.num_detectors
    num_obs = circuit.num_observables
    width = max(1, -(-(num_det + num_obs) // 64))

    # One forward walk: frame-changing ops, measurement readers, and the
    # flat noise targets with the op count ("epoch") preceding each.
    ops: List[tuple] = []
    reader_m: List[int] = []
    reader_col: List[int] = []
    inst_kind: List[int] = []
    inst_epoch: List[int] = []
    inst_size: List[int] = []
    targets: List[int] = []
    m_idx = d_idx = 0
    for inst in circuit.instructions:
        name = inst.name
        if name in NOISE_CHANNELS:
            if inst.arg != 0.0:
                inst_kind.append(_KIND[name])
                inst_epoch.append(len(ops))
                inst_size.append(len(inst.targets))
                targets.extend(inst.targets)
        elif name in _FRAME_OPS:
            if name in ("CX", "CZ"):
                ops.append((name, _pair_groups(inst.target_pairs())))
            elif name in ("H", "S"):
                ops.append((name, _odd_multiplicity(list(inst.targets))))
            elif name in ("R", "RX"):
                ops.append(("RESET", np.unique(_idx(inst.targets))))
            else:  # M, MX, MR: (targets, first record index, repeats?)
                k = len(inst.targets)
                ops.append((name, (_idx(inst.targets), m_idx,
                                   len(set(inst.targets)) != k)))
                m_idx += k
        elif name == "DETECTOR":
            reader_m.extend(inst.targets)
            reader_col.extend([d_idx] * len(inst.targets))
            d_idx += 1
        elif name == "OBSERVABLE_INCLUDE":
            reader_m.extend(inst.targets)
            reader_col.extend([num_det + int(inst.arg)] * len(inst.targets))

    empty = _DemTemplate(num_det, num_obs, (), np.zeros((0, 0), np.int32),
                         np.zeros(0, np.intp), np.zeros(0))
    if not targets:
        return empty

    # 1. Basis faults (target order; X before Z) and components (unit order).
    kind_t = np.repeat(_idx(inst_kind), inst_size)
    slot_t = np.repeat(np.arange(len(inst_kind)), inst_size)
    epoch_t = np.repeat(_idx(inst_epoch), inst_size)
    nf_t = _FAULTS_PER_TARGET[kind_t]
    base_t = np.cumsum(nf_t) - nf_t
    num_faults = int(nf_t.sum())
    fault_t = np.repeat(np.arange(kind_t.size), nf_t)
    pauli = _FAULT_PAULI[kind_t[fault_t], np.arange(num_faults) - base_t[fault_t]]
    fault_row = _idx(targets)[fault_t] + n * pauli
    fault_epoch = epoch_t[fault_t]

    inst_start = np.cumsum(inst_size) - inst_size
    pos_t = np.arange(kind_t.size) - np.repeat(inst_start, inst_size)
    units = np.flatnonzero((kind_t != _DEP2) | (pos_t % 2 == 0))
    per_unit = _COMPONENTS_PER_UNIT[kind_t[units]]
    comp_unit = np.repeat(units, per_unit)
    table_row = (_FIRST_COMPONENT[kind_t[comp_unit]] + np.arange(comp_unit.size)
                 - np.repeat(np.cumsum(per_unit) - per_unit, per_unit))
    offsets = _COMPONENT_OFFSETS[table_row]
    comp_faults = np.where(offsets >= 0, base_t[comp_unit][:, None] + offsets,
                           num_faults)  # num_faults: the all-zero pad row
    comp_size = (offsets >= 0).sum(axis=1)

    # 2. Backward sensitivity walk; basis signatures read at each epoch.
    meas = np.zeros((m_idx, width), np.uint64)
    if reader_m:
        cols = _idx(reader_col)
        np.bitwise_xor.at(meas, (_idx(reader_m), cols >> 6),
                          np.uint64(1) << (cols & 63).astype(np.uint64))
    rows = np.zeros((2 * n, width), np.uint64)
    basis = np.zeros((num_faults + 1, width), np.uint64)
    bounds = np.searchsorted(fault_epoch, np.arange(len(ops) + 2))
    for k in range(len(ops), -1, -1):
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            basis[lo:hi] = rows[fault_row[lo:hi]]
        if k:
            _step_back(rows, n, meas, ops[k - 1])

    # 3. Component signatures, detector popcounts, decomposition.
    comp_sig = basis[comp_faults[:, 0]]
    for j in range(1, comp_faults.shape[1]):
        comp_sig ^= basis[comp_faults[:, j]]
    split = np.zeros(comp_sig.shape[0], bool)
    if decompose:
        det_mask = np.array([(1 << min(max(num_det - 64 * w, 0), 64)) - 1
                             for w in range(width)], np.uint64)
        split = row_popcounts(comp_sig & det_mask) > 2
    count = np.where(split, comp_size, 1)
    contrib_comp = np.repeat(np.arange(comp_unit.size), count)
    member = np.arange(contrib_comp.size) - np.repeat(np.cumsum(count) - count, count)
    sig = np.where(split[contrib_comp][:, None],
                   basis[comp_faults[contrib_comp, member]],
                   comp_sig[contrib_comp])
    live = sig.any(axis=1)
    contrib_comp, sig = contrib_comp[live], sig[live]
    if not contrib_comp.size:
        return empty

    # 4. Group by key; sort keys as (detectors, observables) tuples.
    by_sig = np.lexsort(sig.T)
    sig = sig[by_sig]
    first = np.ones(sig.shape[0], bool)
    first[1:] = (sig[1:] != sig[:-1]).any(axis=1)
    inverse = np.empty(sig.shape[0], np.intp)
    inverse[by_sig] = np.cumsum(first) - 1
    uniq = sig[first]
    bits = np.unpackbits(uniq.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")
    det_sets = _row_members(bits[:, :num_det])
    obs_sets = _row_members(bits[:, num_det:num_det + num_obs])
    raw_keys = list(zip(det_sets, obs_sets))
    ranked = sorted(range(len(raw_keys)), key=raw_keys.__getitem__)
    rank = np.empty(len(ranked), np.intp)
    rank[ranked] = np.arange(len(ranked))
    key_of = rank[inverse]
    by_key = np.argsort(key_of, kind="stable")
    per_key = np.bincount(key_of, minlength=len(ranked))
    depth = np.arange(key_of.size) - np.repeat(np.cumsum(per_key) - per_key, per_key)
    order = np.full((int(per_key.max()), len(ranked)), key_of.size, np.int32)
    order[depth, key_of[by_key]] = by_key

    slot = slot_t[comp_unit[contrib_comp]]
    divisor = _DIVISOR[kind_t[comp_unit[contrib_comp]]]
    for arr in (order, slot, divisor):
        arr.flags.writeable = False
    return _DemTemplate(num_det, num_obs,
                        tuple(raw_keys[i] for i in ranked),
                        order, slot, divisor)


def _row_members(bits: np.ndarray) -> List[Tuple[int, ...]]:
    """Column indices of the set entries of each row, as sorted tuples."""
    rows, cols = np.nonzero(bits)
    cuts = np.searchsorted(rows, np.arange(bits.shape[0] + 1)).tolist()
    cols = cols.tolist()
    return [tuple(cols[a:b]) for a, b in zip(cuts, cuts[1:])]


#: Structure templates kept per process (LRU), guarded by
#: ``_TEMPLATES_LOCK``: the socket worker builds contexts on one thread per
#: connection.  A sweep touches a handful of geometries, each reused across
#: its noise rates; one template (arrays, keys and structure key) takes
#: about 0.3 MB at d=5 and 2 MB at d=9.
DEM_TEMPLATE_CACHE_SIZE = 16
_TEMPLATES: Dict[tuple, _DemTemplate] = {}
_TEMPLATES_LOCK = threading.Lock()


def _template_for(circuit: Circuit, decompose: bool, key: tuple) -> _DemTemplate:
    """The cached structure for ``key``; builds (outside the lock) on a miss.

    Two threads missing on one key may both build; the templates are equal,
    so whichever lands last is as good as the other.
    """
    with _TEMPLATES_LOCK:
        template = _TEMPLATES.pop(key, None)
        if template is not None:
            _TEMPLATES[key] = template  # re-insert at the recent end
            return template
    circuit.validate()
    template = _structure_pass(circuit, decompose)
    with _TEMPLATES_LOCK:
        _TEMPLATES.pop(key, None)  # another thread may have built it too
        while len(_TEMPLATES) >= DEM_TEMPLATE_CACHE_SIZE:
            _TEMPLATES.pop(next(iter(_TEMPLATES)))
        _TEMPLATES[key] = template
    return template


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

    The p-free structure comes from the per-process template LRU (built on
    first use; the circuit is validated then, and its structure key covers
    everything validation reads); only the per-p fold runs on every call.
    """
    key, args = _structure_key(circuit, decompose)
    template = _template_for(circuit, decompose, key)
    return DetectorErrorModel(template.num_detectors, template.num_observables,
                              template.fold(args))
