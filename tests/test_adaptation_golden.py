"""Golden corpus: ``adapt_patch`` and ``evaluate_patch`` are pinned field for field.

Every entry of ``tests/data/adaptation_golden.json`` is one sampled chiplet
(width ``l``, defect model, defect rate, seed) and the SHA-256 of a canonical
rendering of the resulting :class:`AdaptedPatch` - every field in order,
including the tuple order of ``stabilizers``, the super-stabilizers with their
``cluster_id`` and gauge order, and the insertion order of
``cluster_repetitions`` - followed by the :class:`PatchMetrics` tuple.
Stabilizer order shapes the syndrome-extraction circuits built from a patch,
so a rewrite of the adaptation fixpoint must reproduce it exactly, not just
up to set equality.

Regenerate (only when the adaptation output is meant to change)::

    PYTHONPATH=src python tests/test_adaptation_golden.py --commit <rev> \\
        > tests/data/adaptation_golden.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core import AdaptedPatch, adapt_patch, evaluate_patch
from repro.core.metrics import PatchMetrics
from repro.noise import DefectModel, LINK_AND_QUBIT, LINK_ONLY
from repro.surface_code import RotatedSurfaceCodeLayout

GOLDEN_PATH = Path(__file__).parent / "data" / "adaptation_golden.json"

SIZES = (5, 7, 9, 11, 13, 17)
MODELS = (LINK_ONLY, LINK_AND_QUBIT)
RATES = (0.005, 0.01, 0.02, 0.05, 0.1)
#: seeds per (size, model, rate) cell; fewer on the widest chiplets to keep
#: the corpus within a few seconds of test time.
SEEDS = {5: 6, 7: 6, 9: 5, 11: 4, 13: 3, 17: 2}


def _cells() -> List[Tuple[int, str, float, int]]:
    return [
        (l, model, rate, seed)
        for l in SIZES
        for model in MODELS
        for rate in RATES
        for seed in range(SEEDS[l])
    ]


def _sample(l: int, model: str, rate: float, seed: int):
    layout = RotatedSurfaceCodeLayout(l)
    rng = np.random.default_rng([l, MODELS.index(model), RATES.index(rate), seed])
    return layout, DefectModel(model, rate).sample(layout, rng)


def canonical(patch: AdaptedPatch, metrics: PatchMetrics) -> str:
    """Order-sensitive rendering of every patch field plus the metrics tuple."""
    defects = patch.defects
    fields = [
        ("layout", type(patch.layout).__name__, patch.layout.size),
        ("faulty_qubits", sorted(defects.faulty_qubits)),
        ("faulty_links", sorted(defects.faulty_links)),
        ("disabled_data", sorted(patch.disabled_data)),
        ("disabled_ancillas", sorted(patch.disabled_ancillas)),
        ("stabilizers", [(c.kind, c.ancilla, c.data) for c in patch.stabilizers]),
        ("super_stabilizers", [
            (ss.kind, ss.cluster_id, [(g.kind, g.ancilla, g.data) for g in ss.gauges])
            for ss in patch.super_stabilizers
        ]),
        ("cluster_repetitions", list(patch.cluster_repetitions.items())),
        ("valid", patch.valid),
        ("failure_reason", patch.failure_reason),
        ("metrics", dataclasses.astuple(metrics)),
    ]
    return repr(fields)


def _digest(patch: AdaptedPatch, metrics: PatchMetrics) -> str:
    return hashlib.sha256(canonical(patch, metrics).encode()).hexdigest()


def _kind(layout: RotatedSurfaceCodeLayout, patch: AdaptedPatch,
          metrics: PatchMetrics) -> str:
    """Which adaptation path a patch exercised (for corpus coverage).

    ``invalid`` covers both an unconverged adaptation and a patch left with no
    logical distance (the yield model rejects either).
    """
    if not (patch.valid and metrics.valid):
        return "invalid"
    if patch.super_stabilizers:
        return "super"
    deformed = [
        c for c in patch.stabilizers
        if c.data != layout.check_by_ancilla[c.ancilla].data
    ]
    return "deformed" if deformed else "plain"


def _load() -> Dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _evaluate(entry: Dict) -> Tuple[RotatedSurfaceCodeLayout, AdaptedPatch, PatchMetrics]:
    layout, defects = _sample(entry["l"], entry["model"], entry["rate"], entry["seed"])
    patch = adapt_patch(layout, defects)
    return layout, patch, evaluate_patch(patch)


@pytest.fixture(scope="module")
def golden():
    return _load()


def test_corpus_covers_the_declared_grid(golden):
    keys = [(e["l"], e["model"], e["rate"], e["seed"]) for e in golden["patches"]]
    assert keys == _cells()


def test_corpus_exercises_every_adaptation_path(golden):
    kinds = {e["kind"] for e in golden["patches"]}
    assert {"invalid", "super", "deformed", "plain"} <= kinds


def test_adapted_patches_match_golden_digests(golden):
    mismatches = []
    for entry in golden["patches"]:
        layout, patch, metrics = _evaluate(entry)
        if _digest(patch, metrics) != entry["sha256"] or _kind(layout, patch, metrics) != entry["kind"]:
            mismatches.append((entry["l"], entry["model"], entry["rate"], entry["seed"]))
    assert not mismatches, f"{len(mismatches)} patches changed: {mismatches[:10]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True,
                        help="git revision of the adaptation code being pinned")
    args = parser.parse_args(argv)
    patches = []
    for l, model, rate, seed in _cells():
        entry = {"l": l, "model": model, "rate": rate, "seed": seed}
        layout, patch, metrics = _evaluate(entry)
        entry["kind"] = _kind(layout, patch, metrics)
        entry["sha256"] = _digest(patch, metrics)
        patches.append(entry)
    header = {
        "generator": "PYTHONPATH=src python tests/test_adaptation_golden.py --commit <rev>",
        "commit": args.commit,
    }
    # One patch per line keeps diffs of a regenerated corpus readable.
    lines = [json.dumps(entry) for entry in patches]
    sys.stdout.write(json.dumps(header)[:-1] + ', "patches": [\n')
    sys.stdout.write(",\n".join(lines) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
