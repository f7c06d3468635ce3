"""Bit-packed Pauli-frame sampler: the pipeline-facing twin of ``frame.py``.

:class:`PackedFrameSimulator` implements exactly the same frame-update rules
as :class:`~repro.stabilizer.frame.FrameSimulator` (see that module's table)
but stores the X/Z frame components, the measurement-flip record and the
detector/observable outputs as little-endian ``uint64`` bit rows
(:mod:`~repro.stabilizer.bitpack`): one word carries 64 shots.

Instruction dispatch is **vectorised**: at construction the circuit is
compiled into a small program whose ops carry precomputed target index
arrays, per-row noise probabilities, flattened measurement maps and
read/write-hazard-free two-qubit groups, so each op executes as one (or a
few) whole-array numpy kernels instead of a per-target Python loop:

* noise channels draw their variates per *op* with
  ``rng.random((rows, shots))`` — C-order row fill reproduces the
  per-target sequential draw order exactly — into a reused scratch buffer,
  and turn them into packed flip rows by whole-matrix packing
  (:func:`~repro.stabilizer.bitpack.pack_rows`);
* the depolarizing channels additionally pick a *sparse* strategy below
  ``_SPARSE_P_MAX``: the packed hit mask is scanned at word granularity
  (64 lanes per compare), only the few hit words are expanded to lane
  indices, and the per-lane Pauli choice is computed on those lanes alone
  before XOR-scattering single bits into the frame — at p = 1e-3 fewer
  than 0.1% of lanes flip, so full-lane Pauli arithmetic is almost all
  wasted memory traffic;
* draws are *row-blocked* (``_BLOCK_BYTES``): an op covering many targets
  draws consecutive row blocks instead of one giant matrix, which keeps
  the float64 scratch inside the cache sweet spot without touching draw
  order (block rows concatenate in exactly the C order of the full draw);
* gate updates are fancy-indexed XORs on target index arrays
  (``x[tgt] ^= x[ctrl]``), with CX/CZ pair lists split greedily into
  duplicate-free groups so chained pairs keep their sequential meaning;
* DETECTOR / OBSERVABLE_INCLUDE reduce with ``np.bitwise_xor.reduceat`` /
  ``np.bitwise_xor.reduce`` over measurement-index arrays resolved at
  compile time;
* runs of *consecutive same-channel instructions* (the dominant shape in
  the surface-code circuits, which emit one-target noise instructions) fuse
  into a single op — RNG draw order is unchanged because the fused block
  draw fills rows in exactly the per-instruction order.

Noise draws consume the **same** ``rng`` variates in the **same order** as
the unpacked simulator, so a packed run is bit-identical to an unpacked run
with the same seed; the test suite checks this instruction by instruction
via the ``trace`` hooks, and against the frozen per-target loop in
:mod:`repro.stabilizer.reference`.  When a ``trace`` hook is given, the
simulator switches to a stepwise program (one op per instruction, still
vectorised within the instruction) so the hook keeps firing after every
instruction with identical dense views.

**Fast RNG mode** (``rng_mode="bitgen"``): the default ``"exact"`` mode is
RNG-generation-bound at large shot counts — every noise row burns ``shots``
float64 variates just to compare them against p.  The opt-in bitgen mode
draws noise at the *bit level* instead:

* each noise row draws ``_BITGEN_K`` (12) raw ``uint64`` words per packed
  shot word off a fast ``SFC64`` stream and combines them by the binary
  expansion of ``m = ceil(p * 2**K)`` — starting from zero and folding the
  words least-significant-bit-first (``out = w | out`` where the bit of
  ``m`` is set, ``w & out`` where it is clear) realises a packed Bernoulli
  mask with ``P(bit) = m / 2**K >= p`` directly in packed form — ~5x fewer
  random bytes and no float scratch, compare or packing pass at all (rows
  sharing one ``p``, the overwhelmingly common fused-channel shape, fold
  with whole-array in-place ops);
* a **residual-correction pass** makes any ``p`` exact: every coarse
  candidate lane draws one double ``u`` from a separate thinning stream and
  survives iff ``u * p_hi < p`` (so ``P = p_hi * p/p_hi = p`` exactly); the
  surviving draw ``u * p_hi`` is uniform on ``[0, p)`` and picks the Pauli
  for the depolarizing channels with the same arithmetic as the exact
  sparse path;
* measurement randomisation is ``p = 1/2`` exactly — one raw word per 64
  lanes, no correction pass;
* the word stream and the thinning stream are two child streams of the
  sampler seed, so word consumption never depends on the (data-dependent)
  number of thinning draws: bitgen results are invariant to instruction
  fusion, ``trace`` hooks and row-block splits, and remain deterministic
  per seed across processes and hosts.

Bitgen mode consumes a **different** (still deterministic) RNG stream than
exact mode, so it is statistically equivalent but not bit-identical — which
is why the engine carries it as a task-spec field that flows into content
hashes and is never the default (see ``LerPointTask.rng_mode``).

The sampler returns :class:`PackedDetectorSamples`, which keeps the packed
rows and offers

* dense compatibility copies (``.detectors`` / ``.observables``) matching
  :class:`~repro.stabilizer.frame.DetectorSamples`, so existing callers keep
  working, and
* *chunk extraction* over one core: the words covering a shot range are
  transposed in 8x8 bit blocks into one byte-string key per shot, one OR
  over the keys splits off the empty shots, and ``np.unique`` over the
  rest yields the range's distinct rows in first-occurrence order with an
  inverse index (:meth:`PackedDetectorSamples.distinct_syndromes`, what the
  decoding pipeline consumes).  The per-shot views
  :meth:`PackedDetectorSamples.fired_detectors` /
  :meth:`PackedDetectorSamples.flipped_observables` scatter those distinct
  tuples back to one sorted tuple per shot, so tuples are built once per
  distinct row, never per shot — at low physical error rates most rows are
  empty or repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bitpack import WORD_BITS, num_words, pack_rows, unpack_bits
from .circuit import Circuit
from .frame import DetectorSamples

__all__ = ["DistinctRows", "PackedDetectorSamples", "PackedFrameSimulator",
           "RNG_MODES", "sample_detectors_packed"]

#: Supported RNG modes: ``"exact"`` reproduces the paper-exact per-target
#: draw stream bit-for-bit; ``"bitgen"`` is the opt-in fast bit-level
#: Bernoulli stream (statistically equivalent, different variates).
RNG_MODES = ("exact", "bitgen")

# Trace hook signature shared with FrameSimulator: called after every
# instruction with (instruction_index, instruction, x_bool, z_bool,
# meas_flips_bool) where the arrays are dense ``(rows, shots)`` booleans.
TraceHook = Callable[[int, object, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass
class PackedDetectorSamples:
    """Detector/observable flip data in packed bit rows.

    ``detectors_packed`` has shape ``(num_detectors, num_words)`` and
    ``observables_packed`` shape ``(num_observables, num_words)``; bit
    ``s % 64`` of word ``s // 64`` is shot ``s``.
    """

    detectors_packed: np.ndarray
    observables_packed: np.ndarray
    num_shots: int

    @property
    def num_detectors(self) -> int:
        return int(self.detectors_packed.shape[0])

    @property
    def num_observables(self) -> int:
        return int(self.observables_packed.shape[0])

    # -- dense compatibility copies ------------------------------------
    @property
    def detectors(self) -> np.ndarray:
        """Dense ``(shots, num_detectors)`` boolean copy (unpacked on demand).

        A fresh array per access — mutating it never touches the packed
        rows, so cache it if you read it in a loop.
        """
        if self.num_detectors == 0:
            return np.zeros((self.num_shots, 0), dtype=bool)
        return unpack_bits(self.detectors_packed, self.num_shots).T.copy()

    @property
    def observables(self) -> np.ndarray:
        """Dense ``(shots, num_observables)`` boolean copy (unpacked on demand)."""
        if self.num_observables == 0:
            return np.zeros((self.num_shots, 0), dtype=bool)
        return unpack_bits(self.observables_packed, self.num_shots).T.copy()

    def to_detector_samples(self) -> DetectorSamples:
        """Fully unpacked :class:`DetectorSamples` (legacy-shaped)."""
        return DetectorSamples(detectors=self.detectors, observables=self.observables)

    def detection_fraction(self) -> float:
        """Mean fraction of detectors that fired per shot (a health metric)."""
        if self.num_detectors == 0 or self.num_shots == 0:
            return 0.0
        from .bitpack import popcount

        return popcount(self.detectors_packed) / (self.num_detectors * self.num_shots)

    # -- chunk extraction ----------------------------------------------
    def _key_bytes(self, packed: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Per-shot keys of a row set over shots ``start..stop``, byte-major.

        Column ``s`` of the ``(ceil(rows / 8), stop - start)`` uint8 result
        is shot ``start + s``'s key: its row bits packed little-endian (bit
        ``r % 8`` of byte ``r // 8`` is row ``r``).  Only the words covering
        the range are read, and they are transposed in 8x8 bit blocks (8
        rows x 8 shots per ``uint64``), so no dense boolean matrix is built.
        Byte-major keeps every per-shot reduction a whole-row operation.
        """
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= self.num_shots:
            raise ValueError(f"shot range [{start}, {stop}) outside 0..{self.num_shots}")
        rows = packed.shape[0]
        groups = -(-rows // 8)
        word_lo = start // WORD_BITS
        word_hi = num_words(stop)
        nbytes = (word_hi - word_lo) * (WORD_BITS // 8)
        block = np.zeros((8 * groups, word_hi - word_lo), dtype=np.uint64)
        block[:rows] = packed[:, word_lo:word_hi]
        # Byte b of x[g, j] holds shots 8j..8j+7 of row 8g+b: an 8x8 bit
        # matrix whose transpose holds rows 8g..8g+7 of each of those shots.
        x = np.ascontiguousarray(block.view(np.uint8).reshape(groups, 8, nbytes)
                                 .transpose(0, 2, 1)).view(np.uint64)[..., 0]
        for shift, mask in _TRANSPOSE_8X8:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        offset = start - word_lo * WORD_BITS
        return x.view(np.uint8)[:, offset:offset + stop - start]

    def _distinct_rows(self, packed: np.ndarray, start: int, stop: int) -> "DistinctRows":
        """The chunk core: distinct non-empty rows of shots ``start..stop``.

        One OR over the key bytes splits off the empty shots and
        ``np.unique`` over the rest finds the distinct rows, so index tuples
        are built once per distinct row, never per shot.
        """
        key_bytes = self._key_bytes(packed, start, stop)
        nonempty = np.flatnonzero(np.bitwise_or.reduce(key_bytes, axis=0))
        if nonempty.size == 0:
            return DistinctRows(key_bytes.shape[1], nonempty, nonempty, [])
        keys = np.ascontiguousarray(key_bytes[:, nonempty].T)
        _, first, inverse = np.unique(
            keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        # np.unique sorts by key bytes; renumber by first occurrence.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        bits = np.unpackbits(keys[first[order]], axis=1,
                             count=packed.shape[0], bitorder="little")
        owner, cols = np.nonzero(bits)
        flat = cols.tolist()
        rows: List[Tuple[int, ...]] = []
        at = 0
        for count in np.bincount(owner, minlength=order.size).tolist():
            rows.append(tuple(flat[at:at + count]))
            at += count
        return DistinctRows(key_bytes.shape[1], nonempty, rank[inverse.ravel()], rows)

    def distinct_syndromes(self, start: int = 0, stop: Optional[int] = None) -> "DistinctRows":
        """Distinct sparse syndromes of a shot range, in first-occurrence order."""
        stop = self.num_shots if stop is None else stop
        return self._distinct_rows(self.detectors_packed, start, stop)

    def observable_bytes(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Flipped observables of a shot range as byte-major per-shot keys.

        Shape ``(ceil(num_observables / 8), stop - start)``: column ``s`` is
        ``np.packbits(observables[start + s], bitorder="little")``, for any
        observable count.
        """
        stop = self.num_shots if stop is None else stop
        return self._key_bytes(self.observables_packed, start, stop)

    def fired_detectors(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple[int, ...]]:
        """Sparse syndromes: one sorted tuple of fired detectors per shot."""
        return self.distinct_syndromes(start, stop).per_shot()

    def flipped_observables(self, start: int = 0, stop: Optional[int] = None) -> List[Tuple[int, ...]]:
        """One sorted tuple of flipped observable indices per shot."""
        stop = self.num_shots if stop is None else stop
        return self._distinct_rows(self.observables_packed, start, stop).per_shot()


#: Delta swaps transposing the 8x8 bit matrix of a uint64 (bit 8r + c
#: <-> bit 8c + r), after Hacker's Delight, section 7-3.
_TRANSPOSE_8X8 = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


@dataclass(frozen=True)
class DistinctRows:
    """Distinct non-empty rows of one shot range of a packed row set.

    ``nonempty`` holds the (range-relative, ascending) offsets of the shots
    with at least one bit set, ``inverse[i]`` the index into ``rows`` of
    shot ``nonempty[i]``, and ``rows`` the distinct sorted index tuples in
    order of first occurrence.
    """

    num_shots: int
    nonempty: np.ndarray
    inverse: np.ndarray
    rows: List[Tuple[int, ...]]

    def per_shot(self) -> List[Tuple[int, ...]]:
        """Scatter the distinct rows back to one tuple per shot (``()`` if empty)."""
        slot = np.zeros(self.num_shots, dtype=np.intp)
        slot[self.nonempty] = self.inverse + 1
        table: List[Tuple[int, ...]] = [()] + self.rows
        return list(map(table.__getitem__, slot.tolist()))


# ----------------------------------------------------------------------
# Compiled program
# ----------------------------------------------------------------------
# An op is (kind, first_instruction_index, data).  In the fused program one
# op may cover a run of consecutive same-channel instructions; the stepwise
# program (used when a trace hook is installed) has exactly one op per
# instruction so the hook contract is preserved.

# Instruction families whose consecutive runs may fuse into one op without
# changing RNG draw order or frame semantics (all are either draw-free and
# idempotent/parity-reducible, or pure XOR scatters of fresh variates).
_FUSABLE = frozenset({
    "RESET", "H", "S", "M", "MX", "MR", "DETECTOR",
    "X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1", "DEPOLARIZE2",
})

# Cap on the float64 scratch of one noise-draw block.  Fused ops covering
# hundreds of targets at tens of thousands of shots would otherwise
# materialise ~100MB temporaries per op and lose to cache misses what they
# won in dispatch.
_BLOCK_BYTES = 8 << 20

# Depolarizing channels whose probabilities never exceed this use the
# sparse flip strategy (hit words -> lane indices -> per-lane Pauli choice
# -> per-bit XOR scatter); denser channels compute the Pauli choice on
# every lane and pack whole rows.  Both strategies are bit-exact.
_SPARSE_P_MAX = 0.02


def _row_blocks(rows: int, shots: int):
    """Split ``rows`` draw rows into blocks of bounded float64 footprint."""
    step = max(1, _BLOCK_BYTES // max(shots * 8, 1))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def _fuse_key(name: str) -> str:
    # R and RX clear both frame components identically, so they fuse as one
    # family.
    return "RESET" if name in ("R", "RX") else name


def _idx(values: Sequence[int]) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


def _has_dup(arr: np.ndarray) -> bool:
    return arr.size != np.unique(arr).size


def _pair_groups(pairs: List[Tuple[int, int]]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split an ordered pair list into hazard-free fancy-index groups.

    Within a group every qubit appears at most once, so gathering all reads
    before scattering all writes reproduces the sequential per-pair update;
    a chained pair (reusing a qubit of an earlier pair) starts a new group.
    """
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    left: List[int] = []
    right: List[int] = []
    used: set = set()
    for a, b in pairs:
        if a in used or b in used:
            groups.append((_idx(left), _idx(right)))
            left, right, used = [], [], set()
        left.append(a)
        right.append(b)
        used.add(a)
        used.add(b)
    if left:
        groups.append((_idx(left), _idx(right)))
    return groups


def _odd_multiplicity(targets: List[int]) -> np.ndarray:
    """Targets appearing an odd number of times (even repeats cancel)."""
    arr = _idx(targets)
    qs, counts = np.unique(arr, return_counts=True)
    return qs[counts % 2 == 1]


# Op kinds that consume RNG rows (used to size the shared draw scratch).
_DRAW_KINDS = frozenset({"m", "mx", "xerr", "zerr", "yerr", "dep1", "dep2"})

# Fixed-point precision of the bitgen coarse Bernoulli masks: a noise row
# always combines exactly this many raw uint64 words per packed shot word,
# regardless of p, so word-stream consumption is a pure function of the
# compiled rows and never of the drawn data.  16 bits keeps the coarse
# overshoot (and therefore the thinning-candidate surplus) below 2**-16 per
# lane while still drawing 4x fewer raw words than the exact float stream.
_BITGEN_K = 12

# Noise-channel op kinds that build a coarse bitgen mask (M/MX are exactly
# p = 1/2 and draw single raw words instead).
_BITGEN_CHANNELS = frozenset({"xerr", "zerr", "yerr", "dep1", "dep2"})


def _raw_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform ``uint64`` words straight off the bit generator."""
    bg = rng.bit_generator
    if hasattr(bg, "random_raw"):
        return bg.random_raw(n)
    # Exotic bit generators without random_raw (never numpy's defaults):
    # full-range integers draw one word per call just the same.
    return rng.integers(0, np.iinfo(np.uint64).max, size=n,
                        dtype=np.uint64, endpoint=True)


def _compile_bitgen_channel(pflat: np.ndarray) -> tuple:
    """Per-row fixed-point data for a bitgen coarse-mask channel.

    Returns ``(mbits, full, p_hi, ubits)``: ``mbits[j, row]`` is bit ``j``
    of ``m_row = ceil(p_row * 2**K)`` (LSB first — the combine order),
    ``full`` flags rows whose coarse mask saturates to all-ones
    (``m >= 2**K``, i.e. p within 2**-K of 1), and ``p_hi = m / 2**K`` is
    the exact coarse probability the correction pass thins down from.
    ``p_hi >= p`` always holds: scaling by a power of two is exact in
    binary floating point, so ``ceil`` can never land below ``p * 2**K``.

    When every row shares one ``m`` (the usual fused-channel shape under a
    uniform noise model) ``ubits`` carries that single bit pattern so the
    fold can run whole-array in-place ops instead of per-row boolean
    selections; otherwise ``ubits`` is ``None``.
    """
    scale = 1 << _BITGEN_K
    m = np.ceil(pflat * scale).astype(np.int64)
    np.clip(m, 0, scale, out=m)
    full = m >= scale
    p_hi = m / float(scale)
    work = np.where(full, 0, m)
    shifts = np.arange(_BITGEN_K, dtype=np.int64)
    mbits = ((work[None, :] >> shifts[:, None]) & 1).astype(bool)
    ubits = None
    if m.size and bool(np.all(m == m[0])):
        ubits = tuple(bool(b) for b in mbits[:, 0])
    return mbits, (full if bool(full.any()) else None), p_hi, ubits


def _compile_bitgen_aux(ops: List[Tuple[str, int, tuple]]) -> dict:
    """Coarse-mask data for every channel op of a compiled program."""
    aux = {}
    for idx, (kind, _first, data) in enumerate(ops):
        if kind in _BITGEN_CHANNELS:
            pflat = data[2] if kind == "dep2" else data[1]
            aux[idx] = _compile_bitgen_channel(pflat)
    return aux


def _tail_mask(shots: int) -> np.uint64:
    """Mask keeping only the first ``shots % 64`` lanes of the last word.

    Bitgen draws whole words, so without this the ghost lanes beyond
    ``shots`` would accumulate frame bits and corrupt word-granular
    consumers (popcounts, detection fractions).  Exact mode never needs it:
    per-shot draws simply stop at ``shots``.
    """
    rem = shots % WORD_BITS
    return np.uint64((1 << rem) - 1) if rem else np.uint64(0xFFFFFFFFFFFFFFFF)


def _bitgen_mask(wrng: np.random.Generator, aux: tuple, i0: int, i1: int,
                 nw: int, tail: np.uint64) -> np.ndarray:
    """Packed coarse Bernoulli(p_hi) mask for draw rows ``[i0, i1)``.

    Folds the fresh words least-significant-bit first: after processing bit
    ``j`` the lane probability is ``(m >> j << j) / 2**K`` restricted to the
    bits seen so far, so the full pass realises exactly ``m / 2**K``.  Rows
    draw their words in C order (row-major), which is what makes block
    splits and stepwise programs consume the identical word stream.
    """
    mbits, full, _p_hi, ubits = aux
    rows = i1 - i0
    raw = _raw_words(wrng, rows * _BITGEN_K * nw).reshape(rows, _BITGEN_K, nw)
    if ubits is not None and True in ubits:
        # Uniform-m fast path: one bit pattern for every row, so each fold
        # layer is a whole-array in-place op.  Layers below the lowest set
        # bit AND into an all-zero mask — skipping their *compute* changes
        # nothing, and their words were consumed by the block draw above,
        # so the stream stays put.
        j0 = ubits.index(True)
        out = raw[:, j0].copy()
        for j in range(j0 + 1, _BITGEN_K):
            if ubits[j]:
                np.bitwise_or(out, raw[:, j], out=out)
            else:
                np.bitwise_and(out, raw[:, j], out=out)
    else:
        out = np.zeros((rows, nw), dtype=np.uint64)
        for j in range(_BITGEN_K):
            b = mbits[j, i0:i1]
            out[b] |= raw[b, j]
            nb = ~b
            out[nb] &= raw[nb, j]
    if full is not None:
        out[full[i0:i1]] = np.uint64(0xFFFFFFFFFFFFFFFF)
    out[:, -1] &= tail
    return out


def _draw_scratch(rows: int, shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Allocate the shared exact-mode draw/compare scratch, validated once.

    ``rng.random(out=...)`` requires a C-contiguous float64 target and
    would otherwise re-derive that fact on every op x row-block call; a
    freshly allocated 2-D array satisfies it by construction, and row
    slices ``buf[:k]`` of a C-contiguous array stay C-contiguous, so one
    explicit check here covers every per-block view the hot loop takes.
    """
    rbuf = np.empty((rows, shots))
    hbuf = np.empty((rows, shots), dtype=bool)
    if rbuf.dtype != np.float64 or not rbuf.flags.c_contiguous:
        raise AssertionError("draw scratch must be C-contiguous float64")
    if hbuf.dtype != np.bool_ or not hbuf.flags.c_contiguous:
        raise AssertionError("hit scratch must be C-contiguous bool")
    return rbuf, hbuf


def _compile_program(circuit: Circuit, fuse: bool) -> Tuple[List[Tuple[str, int, tuple]], int]:
    """Lower the circuit to vectorised ops (index arrays resolved once).

    Returns ``(ops, max_draw_rows)`` where ``max_draw_rows`` is the largest
    number of RNG rows any single op draws — the scratch-buffer bound.
    """
    insts = circuit.instructions
    ops: List[Tuple[str, int, tuple]] = []
    m_idx = 0
    d_idx = 0
    i = 0
    n = len(insts)
    while i < n:
        name = insts[i].name
        key = _fuse_key(name)
        j = i + 1
        if fuse and key in _FUSABLE:
            while j < n and _fuse_key(insts[j].name) == key:
                j += 1
        group = insts[i:j]
        targets = [q for inst in group for q in inst.targets]

        if key in ("CX", "CZ"):
            pairs = group[0].target_pairs()
            ops.append(("nop", i, ()) if not pairs
                       else (key.lower(), i, (_pair_groups(pairs),)))
        elif key == "H":
            odd = _odd_multiplicity(targets)
            ops.append(("h", i, (odd,)) if odd.size else ("nop", i, ()))
        elif key == "S":
            odd = _odd_multiplicity(targets)
            ops.append(("s", i, (odd,)) if odd.size else ("nop", i, ()))
        elif key == "RESET":
            ops.append(("reset", i, (np.unique(_idx(targets)),)) if targets
                       else ("nop", i, ()))
        elif key in ("M", "MX"):
            k = len(targets)
            if k:
                tgt = _idx(targets)
                ops.append((key.lower(), i, (tgt, m_idx, _has_dup(tgt))))
            else:
                ops.append(("nop", i, ()))
            m_idx += k
        elif key == "MR":
            k = len(targets)
            if not k:
                ops.append(("nop", i, ()))
            elif len(set(targets)) != k:
                # A repeated qubit must observe its own reset mid-run; keep
                # the sequential semantics for this (pathological) shape.
                ops.append(("mr_seq", i, (tuple(targets), m_idx)))
            else:
                ops.append(("mr", i, (_idx(targets), m_idx)))
            m_idx += k
        elif key in ("X_ERROR", "Z_ERROR", "Y_ERROR", "DEPOLARIZE1"):
            if targets:
                tgt = _idx(targets)
                pflat = np.array([inst.arg for inst in group
                                  for _ in inst.targets], dtype=np.float64)
                kind = {"X_ERROR": "xerr", "Z_ERROR": "zerr",
                        "Y_ERROR": "yerr", "DEPOLARIZE1": "dep1"}[key]
                data = (tgt, pflat, _has_dup(tgt))
                if kind == "dep1":
                    data += (float(pflat.max()) <= _SPARSE_P_MAX,)
                ops.append((kind, i, data))
            else:
                ops.append(("nop", i, ()))
        elif key == "DEPOLARIZE2":
            pairs = [(a, b) for inst in group for a, b in inst.target_pairs()]
            if pairs:
                a_arr = _idx([a for a, _ in pairs])
                b_arr = _idx([b for _, b in pairs])
                pflat = np.array([inst.arg for inst in group
                                  for _ in inst.target_pairs()], dtype=np.float64)
                ops.append(("dep2", i, (a_arr, b_arr, pflat,
                                        _has_dup(a_arr), _has_dup(b_arr),
                                        float(pflat.max()) <= _SPARSE_P_MAX)))
            else:
                ops.append(("nop", i, ()))
        elif key == "DETECTOR":
            rows: List[int] = []
            flat: List[int] = []
            offsets: List[int] = []
            for off, inst in enumerate(group):
                if inst.targets:  # empty detectors keep their all-zero row
                    rows.append(d_idx + off)
                    offsets.append(len(flat))
                    flat.extend(inst.targets)
            d_idx += len(group)
            ops.append(("det", i, (_idx(flat), _idx(offsets), _idx(rows)))
                       if rows else ("nop", i, ()))
        elif key == "OBSERVABLE_INCLUDE":
            inst = group[0]
            ops.append(("obs", i, (_idx(inst.targets), int(inst.arg)))
                       if inst.targets else ("nop", i, ()))
        elif key in ("X", "Z", "TICK"):
            # Deterministic Paulis / time markers: no-ops on the frame.
            ops.append(("nop", i, ()))
        else:  # pragma: no cover - circuit validation prevents this
            raise ValueError(f"unhandled instruction {name}")
        i = j

    max_draw_rows = max((op[2][0].size for op in ops if op[0] in _DRAW_KINDS),
                        default=0)
    return ops, max_draw_rows


def _xor_scatter(dest: np.ndarray, idx: np.ndarray, rows: np.ndarray,
                 dup: bool) -> None:
    """``dest[idx] ^= rows``, falling back to the unbuffered ufunc when
    ``idx`` holds duplicates (buffered fancy XOR would drop all but one)."""
    if dup:
        np.bitwise_xor.at(dest, idx, rows)
    else:
        dest[idx] ^= rows


def _scatter_bits(dest: np.ndarray, qubits: np.ndarray, cols: np.ndarray) -> None:
    """Flip shot-bit ``cols[j]`` of packed row ``qubits[j]`` for every ``j``.

    The sparse-strategy scatter: unbuffered per-lane XOR, so repeated
    (qubit, shot) flips cancel exactly like sequential mask XORs.
    """
    words = cols >> 6
    bits = np.uint64(1) << (cols & 63).astype(np.uint64)
    np.bitwise_xor.at(dest, (qubits, words), bits)


def _hit_lanes(hit_words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(row, shot) indices of set bits in packed hit rows, C order.

    Scans at word granularity (64 lanes per element) and expands only the
    hit words to bit positions — the low-p fast path that replaces a
    ``nonzero`` pass over the full boolean mask.
    """
    wr, wc = np.nonzero(hit_words)
    if not wr.size:
        return wr, wc
    bits = np.unpackbits(hit_words[wr, wc].view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")
    sel, bitpos = np.nonzero(bits)
    return wr[sel], wc[sel] * WORD_BITS + bitpos


class PackedFrameSimulator:
    """Samples detector/observable flips on a bit-packed Pauli frame.

    ``rng_mode="exact"`` (the default) draws the paper-exact per-target
    variate stream; ``rng_mode="bitgen"`` selects the fast bit-level
    Bernoulli stream (see the module docstring) — same distribution,
    different variates, so the mode must be chosen per task, not flipped
    silently.
    """

    def __init__(self, circuit: Circuit, seed=None, *, rng_mode: str = "exact"):
        if rng_mode not in RNG_MODES:
            raise ValueError(f"unknown rng_mode {rng_mode!r}; "
                             f"valid modes: {', '.join(RNG_MODES)}")
        circuit.validate()
        self.circuit = circuit
        self.rng_mode = rng_mode
        # fuse(bool) -> (ops, max_draw_rows, bitgen_aux); the fused program
        # runs the no-trace hot path, the stepwise one preserves the
        # per-instruction trace contract.  bitgen_aux is None in exact mode
        # and the per-channel coarse-mask data in bitgen mode — a second
        # compiled-program flavour sharing the same op stream.
        self._programs: dict = {}
        self._wrng: Optional[np.random.Generator] = None
        self._trng: Optional[np.random.Generator] = None
        self.reseed(seed)

    def _program(self, fuse: bool) -> Tuple[List[Tuple[str, int, tuple]], int, Optional[dict]]:
        prog = self._programs.get(fuse)
        if prog is None:
            ops, max_draw_rows = _compile_program(self.circuit, fuse)
            aux = (_compile_bitgen_aux(ops) if self.rng_mode == "bitgen"
                   else None)
            prog = (ops, max_draw_rows, aux)
            self._programs[fuse] = prog
        return prog

    def reseed(self, seed=None) -> "PackedFrameSimulator":
        """Replace the RNG stream, keeping the compiled program warm.

        ``sim.reseed(s).sample(n)`` is bit-identical to
        ``PackedFrameSimulator(circuit, seed=s, rng_mode=...).sample(n)``
        without paying validation + compilation again — what the decoding
        pipeline uses to run one warm simulator across shards and scheduler
        waves.

        Bitgen mode derives two child streams from the seed — one for raw
        words, one for thinning doubles — so the (data-dependent) number of
        correction draws can never shift word consumption.  Both ride
        ``SFC64``: raw-word generation is the bitgen hot path and SFC64
        emits full-width words ~1.6x faster than the default PCG64 (the
        exact-mode ``self.rng`` stays PCG64 — its stream is pinned by the
        paper-reproduction contract).
        """
        self.rng = np.random.default_rng(seed)
        if self.rng_mode == "bitgen":
            root = (seed if isinstance(seed, np.random.SeedSequence)
                    else np.random.SeedSequence(seed))
            key = tuple(root.spawn_key)
            self._wrng = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(entropy=root.entropy,
                                       spawn_key=key + (0,))))
            self._trng = np.random.Generator(np.random.SFC64(
                np.random.SeedSequence(entropy=root.entropy,
                                       spawn_key=key + (1,))))
        return self

    # ------------------------------------------------------------------
    def sample(self, shots: int, *,
               trace: Optional[TraceHook] = None) -> PackedDetectorSamples:
        """Run ``shots`` Monte-Carlo samples; bit-identical to the unpacked
        :meth:`FrameSimulator.sample` for the same seed.

        ``shots=0`` returns an empty sample without consuming RNG state
        (engine shard math may legitimately produce zero-shot requests).
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        circuit = self.circuit
        nw = num_words(shots)
        num_obs = circuit.num_observables
        if shots == 0:
            return PackedDetectorSamples(
                detectors_packed=np.zeros((circuit.num_detectors, 0), dtype=np.uint64),
                observables_packed=np.zeros((num_obs, 0), dtype=np.uint64),
                num_shots=0,
            )
        rng = self.rng

        x = np.zeros((circuit.num_qubits, nw), dtype=np.uint64)
        z = np.zeros((circuit.num_qubits, nw), dtype=np.uint64)
        meas_flips = np.zeros((circuit.num_measurements, nw), dtype=np.uint64)
        detectors = np.zeros((circuit.num_detectors, nw), dtype=np.uint64)
        observables = np.zeros((max(num_obs, 1), nw), dtype=np.uint64)

        ops, max_draw_rows, bg_aux = self._program(fuse=trace is None)
        bitgen = self.rng_mode == "bitgen"
        # Shared draw/compare scratch, sized to one row block: reusing the
        # buffers keeps the hot loop free of multi-MB allocations.  Bitgen
        # never touches float scratch — its masks are born packed.
        rbuf = hbuf = None
        if max_draw_rows and not bitgen:
            buf_rows = min(max_draw_rows,
                           max(1, _BLOCK_BYTES // max(shots * 8, 1)))
            rbuf, hbuf = _draw_scratch(buf_rows, shots)
        if bitgen:
            wrng, trng = self._wrng, self._trng
            tail = _tail_mask(shots)

        insts = circuit.instructions
        for op_index, (kind, first, data) in enumerate(ops):
            if bitgen and kind in _BITGEN_CHANNELS:
                self._run_bitgen_channel(kind, data, bg_aux[op_index],
                                         wrng, trng, x, z, nw, tail, shots)
            elif bitgen and kind in ("m", "mx"):
                tgt, m0, dup = data
                frame, other = (x, z) if kind == "m" else (z, x)
                meas_flips[m0:m0 + tgt.size] = frame[tgt]
                # Measurement randomisation is Bernoulli(1/2) exactly: one
                # fresh word per 64 lanes, no correction pass needed.
                for i0, i1 in _row_blocks(tgt.size, shots):
                    raw = _raw_words(wrng, (i1 - i0) * nw).reshape(i1 - i0, nw)
                    raw[:, -1] &= tail
                    _xor_scatter(other, tgt[i0:i1], raw, dup)
            elif kind == "dep2":
                a, b, pflat, dup_a, dup_b, sparse = data
                for i0, i1 in _row_blocks(a.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    hit = np.less(r, pflat[i0:i1, None], out=hbuf[:i1 - i0])
                    # Uniform over the 15 non-identity two-qubit Paulis,
                    # encoded base 4 as (pa, pb) with 0=I,1=X,2=Y,3=Z; hit
                    # lanes reproduce the per-pair scalar arithmetic exactly.
                    if sparse:
                        rows_i, cols_i = _hit_lanes(pack_rows(hit))
                        # The minimum mirrors the reference's np.clip(k, -1,
                        # 14): a draw within 1 ulp below p can round
                        # r/(p/15) to exactly 15.0.
                        code = np.minimum(
                            (r[rows_i, cols_i]
                             / (pflat[i0 + rows_i] / 15)).astype(np.int8),
                            np.int8(14)) + 1
                        pa = code // 4
                        pb = code % 4
                        for dest, q, sel in (
                            (x, a, (pa == 1) | (pa == 2)),
                            (z, a, (pa == 2) | (pa == 3)),
                            (x, b, (pb == 1) | (pb == 2)),
                            (z, b, (pb == 2) | (pb == 3)),
                        ):
                            _scatter_bits(dest, q[i0 + rows_i[sel]], cols_i[sel])
                    else:
                        pcol = pflat[i0:i1, None]
                        scaled = np.zeros_like(r)
                        np.divide(r, pcol / 15, out=scaled, where=hit)
                        # np.minimum mirrors the reference's np.clip(k, -1,
                        # 14) on the 1-ulp-below-p rounding edge.
                        code = np.where(
                            hit,
                            np.minimum(scaled.astype(np.int8), np.int8(14)) + 1,
                            np.int8(0))
                        pa = code // 4
                        pb = code % 4
                        _xor_scatter(x, a[i0:i1], pack_rows((pa == 1) | (pa == 2)), dup_a)
                        _xor_scatter(z, a[i0:i1], pack_rows((pa == 2) | (pa == 3)), dup_a)
                        _xor_scatter(x, b[i0:i1], pack_rows((pb == 1) | (pb == 2)), dup_b)
                        _xor_scatter(z, b[i0:i1], pack_rows((pb == 2) | (pb == 3)), dup_b)
            elif kind == "dep1":
                tgt, pflat, dup, sparse = data
                for i0, i1 in _row_blocks(tgt.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    # Equal chance p/3 for each of X, Y, Z.
                    if sparse:
                        hit = np.less(r, pflat[i0:i1, None], out=hbuf[:i1 - i0])
                        rows_i, cols_i = _hit_lanes(pack_rows(hit))
                        rv = r[rows_i, cols_i]
                        pv = pflat[i0 + rows_i]
                        is_x = rv < pv / 3
                        is_y = (rv >= pv / 3) & (rv < 2 * pv / 3)
                        is_z = rv >= 2 * pv / 3  # rv < pv holds by selection
                        xf = is_x | is_y
                        zf = is_z | is_y
                        _scatter_bits(x, tgt[i0 + rows_i[xf]], cols_i[xf])
                        _scatter_bits(z, tgt[i0 + rows_i[zf]], cols_i[zf])
                    else:
                        pcol = pflat[i0:i1, None]
                        is_x = r < pcol / 3
                        is_y = (r >= pcol / 3) & (r < 2 * pcol / 3)
                        is_z = (r >= 2 * pcol / 3) & (r < pcol)
                        _xor_scatter(x, tgt[i0:i1], pack_rows(is_x | is_y), dup)
                        _xor_scatter(z, tgt[i0:i1], pack_rows(is_z | is_y), dup)
            elif kind in ("xerr", "zerr", "yerr"):
                # Packed-row XOR is cheap at any density, so Bernoulli
                # channels always take the dense compare->pack->XOR path.
                tgt, pflat, dup = data
                for i0, i1 in _row_blocks(tgt.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    hit = np.less(r, pflat[i0:i1, None], out=hbuf[:i1 - i0])
                    rows = pack_rows(hit)
                    if kind != "zerr":
                        _xor_scatter(x, tgt[i0:i1], rows, dup)
                    if kind != "xerr":
                        _xor_scatter(z, tgt[i0:i1], rows, dup)
            elif kind == "det":
                flat, offsets, rows = data
                detectors[rows] = np.bitwise_xor.reduceat(
                    meas_flips[flat], offsets, axis=0)
            elif kind == "mr":
                tgt, m0 = data
                meas_flips[m0:m0 + tgt.size] = x[tgt]
                x[tgt] = 0
                z[tgt] = 0
            elif kind in ("m", "mx"):
                tgt, m0, dup = data
                frame, other = (x, z) if kind == "m" else (z, x)
                meas_flips[m0:m0 + tgt.size] = frame[tgt]
                for i0, i1 in _row_blocks(tgt.size, shots):
                    r = rbuf[:i1 - i0]
                    rng.random(out=r)
                    hit = np.less(r, 0.5, out=hbuf[:i1 - i0])
                    _xor_scatter(other, tgt[i0:i1], pack_rows(hit), dup)
            elif kind == "cx":
                for c, t in data[0]:
                    x[t] ^= x[c]
                    z[c] ^= z[t]
            elif kind == "cz":
                for a, b in data[0]:
                    z[a] ^= x[b]
                    z[b] ^= x[a]
            elif kind == "h":
                tgt, = data
                tmp = x[tgt]  # fancy indexing gathers a copy
                x[tgt] = z[tgt]
                z[tgt] = tmp
            elif kind == "s":
                tgt, = data
                z[tgt] ^= x[tgt]
            elif kind == "reset":
                tgt, = data
                x[tgt] = 0
                z[tgt] = 0
            elif kind == "mr_seq":
                tgts, m0 = data
                for q in tgts:
                    meas_flips[m0] = x[q]
                    x[q] = 0
                    z[q] = 0
                    m0 += 1
            elif kind == "obs":
                midx, obs = data
                observables[obs] ^= np.bitwise_xor.reduce(meas_flips[midx], axis=0)
            # else "nop": X/Z/TICK and empty-target ops change nothing.
            if trace is not None:
                trace(first, insts[first], unpack_bits(x, shots), unpack_bits(z, shots),
                      unpack_bits(meas_flips, shots) if meas_flips.size
                      else np.zeros((0, shots), dtype=bool))

        return PackedDetectorSamples(
            detectors_packed=detectors,
            observables_packed=observables[:num_obs] if num_obs
            else np.zeros((0, nw), dtype=np.uint64),
            num_shots=shots,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _run_bitgen_channel(kind: str, data: tuple, aux: tuple,
                            wrng: np.random.Generator,
                            trng: np.random.Generator,
                            x: np.ndarray, z: np.ndarray,
                            nw: int, tail: np.uint64, shots: int) -> None:
        """One noise-channel op on the bit-level path.

        Coarse packed Bernoulli(p_hi) mask -> candidate lanes -> one
        thinning double per candidate (``u * p_hi < p`` keeps the lane, and
        the kept ``u * p_hi`` is uniform on ``[0, p)``, reusing the exact
        sparse path's Pauli-choice arithmetic).  Candidates enumerate in
        row-major C order and blocks partition rows contiguously, so the
        thinning stream — like the word stream — is consumed identically
        for any block split and for stepwise (trace) programs.
        """
        if kind == "dep2":
            a, b, pflat, _dup_a, _dup_b, _sparse = data
            rows = a.size
        else:
            tgt, pflat = data[0], data[1]
            rows = tgt.size
        p_hi = aux[2]
        for i0, i1 in _row_blocks(rows, shots):
            coarse = _bitgen_mask(wrng, aux, i0, i1, nw, tail)
            rows_i, cols_i = _hit_lanes(coarse)
            if not rows_i.size:
                continue
            u = trng.random(rows_i.size)
            pv = pflat[i0 + rows_i]
            w = u * p_hi[i0 + rows_i]
            keep = w < pv
            rows_k = rows_i[keep]
            cols_k = cols_i[keep]
            if not rows_k.size:
                continue
            if kind in ("xerr", "zerr", "yerr"):
                if kind != "zerr":
                    _scatter_bits(x, tgt[i0 + rows_k], cols_k)
                if kind != "xerr":
                    _scatter_bits(z, tgt[i0 + rows_k], cols_k)
                continue
            w = w[keep]
            pv = pv[keep]
            if kind == "dep1":
                # Equal chance p/3 for each of X, Y, Z (w ~ U[0, p)).
                is_x = w < pv / 3
                is_y = (w >= pv / 3) & (w < 2 * pv / 3)
                xf = is_x | is_y
                zf = ~is_x  # is_z | is_y, since w < pv by construction
                _scatter_bits(x, tgt[i0 + rows_k[xf]], cols_k[xf])
                _scatter_bits(z, tgt[i0 + rows_k[zf]], cols_k[zf])
            else:  # dep2
                # Uniform over the 15 non-identity two-qubit Paulis; the
                # minimum mirrors the exact path's 1-ulp rounding guard.
                code = np.minimum((w / (pv / 15)).astype(np.int8),
                                  np.int8(14)) + 1
                pa = code // 4
                pb = code % 4
                for dest, q, sel in (
                    (x, a, (pa == 1) | (pa == 2)),
                    (z, a, (pa == 2) | (pa == 3)),
                    (x, b, (pb == 1) | (pb == 2)),
                    (z, b, (pb == 2) | (pb == 3)),
                ):
                    _scatter_bits(dest, q[i0 + rows_k[sel]], cols_k[sel])


def sample_detectors_packed(circuit: Circuit, shots: int, seed=None, *,
                            rng_mode: str = "exact") -> PackedDetectorSamples:
    """Convenience wrapper: packed detector data for ``circuit``."""
    return PackedFrameSimulator(circuit, seed=seed,
                                rng_mode=rng_mode).sample(shots)
