"""Per-figure and per-table reproduction entry points.

Each function regenerates the data behind one figure or table of the paper's
evaluation and returns it as plain Python data structures (the benchmark
harness prints them; examples plot or tabulate them).  Every function accepts
scale parameters so the same code can run at laptop scale (defaults) or at
the paper's full scale; the README's "Scale mapping" table records the
benchmark scaling and how it maps onto the original parameters.

Figure/table index
------------------
``figure5_to_10_study``   slope-vs-indicator population (Figs. 5, 7, 8, 9, 10)
``figure6_curves``        LER vs p for defect-free and defective patches
``figure11_postselection``mean/worst slope of the selected fraction
``figure12_yield``        link-only yield & cost vs defect rate (target d)
``figure13_yield``        link+qubit yield & cost vs defect rate
``figure14_merge_example``distance drop after a lattice-surgery merge
``figure15_boundary``     yield under boundary standards 1-4
``figure16_rotation``     yield improvement from chiplet rotation
``figure17_yield``        larger chiplets for a larger target distance
``figure18_envelope``     minimum extra overhead vs defect rate
``figure19_distance_distribution`` code-distance histograms
``figure20_cutoff``       stability-experiment cutoff-fidelity study
``table1_and_2_resources``Shor-2048 resource estimates
``table3_and_4_fidelity`` Shor-2048 fidelity estimates vs baselines
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import Engine, default_engine
from ..engine.rng import Seed, child_stream, spawn_streams
from ..chiplet.application import (
    ResourceEstimate,
    ShorWorkload,
    estimate_defect_intolerant_resources,
    estimate_no_defect_resources,
    estimate_super_stabilizer_resources,
)
from ..chiplet.boundary import STANDARD_1, STANDARD_2, STANDARD_3, STANDARD_4, merged_seam_distance
from ..chiplet.overhead import OverheadPoint, OverheadStudy, defect_intolerant_overhead
from ..chiplet.yield_model import YieldEstimator, defect_intolerant_yield
from ..core.adaptation import adapt_patch
from ..core.metrics import evaluate_patch
from ..core.postselection import (
    DistanceCriterion,
    rank_by_chosen_indicators,
    rank_by_faulty_count,
    select_fraction,
)
from ..noise.fabrication import LINK_AND_QUBIT, LINK_ONLY, DefectModel, DefectSet
from ..surface_code.layout import RotatedSurfaceCodeLayout
from .cutoff import CutoffStudy, run_cutoff_study
from .memory import logical_error_rate_curve
from .slope import SlopeStudy, estimate_slope, sample_defective_patches

__all__ = [
    "figure5_to_10_study",
    "figure6_curves",
    "figure11_postselection",
    "figure12_yield",
    "figure13_yield",
    "figure14_merge_example",
    "figure15_boundary",
    "figure16_rotation",
    "figure17_yield",
    "figure18_envelope",
    "figure19_distance_distribution",
    "figure20_cutoff",
    "table1_and_2_resources",
    "table3_and_4_fidelity",
]


def _pool_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Engine to hand to the yield Monte-Carlo paths.

    An explicitly passed engine always wins.  Otherwise the env-configured
    default engine is used only when it actually brings something: parallel
    execution slots (a process pool via ``REPRO_WORKERS``, or a remote
    socket fleet via ``REPRO_BACKEND=socket`` + ``REPRO_HOSTS``), or
    (since yield runs route through cacheable ``YieldTask`` specs) an
    on-disk result cache.  With neither, the serial yield path keeps its
    legacy sequential RNG stream (seed compatibility), whereas the engine
    path re-keys sample ``i`` to RNG child stream ``i`` — deterministic for
    any worker or host count, but a different stream split than the legacy
    loop.  Consequence (documented in the README): enabling
    ``REPRO_CACHE``, ``REPRO_WORKERS`` or a parallel ``REPRO_BACKEND``
    shifts seeded yield figures once; the shifted numbers are then stable
    and cache-hit reproducible.
    """
    if engine is not None:
        return engine
    default = default_engine()
    if default.parallel_slots > 1 or default.cache is not None:
        return default
    return None


# ----------------------------------------------------------------------
# Figures 5-11: slope vs indicators
# ----------------------------------------------------------------------
def figure5_to_10_study(
    *,
    size: int = 7,
    defect_rate: float = 0.02,
    num_patches: int = 8,
    physical_error_rates: Sequence[float] = (0.004, 0.006, 0.008),
    shots: int = 3000,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> SlopeStudy:
    """Sample defective chiplets, measure their slopes, collect indicators.

    Paper scale: l = 11, 50 patches per distance, p in [5e-4, 2e-3]; the
    defaults here use l = 7 and a higher-p window so that logical failures are
    observable with thousands (rather than billions) of shots.
    """
    model = DefectModel(LINK_AND_QUBIT, defect_rate)
    # Independent SeedSequence streams for the sampling stage and for each
    # patch's slope measurement: collision-free and call-order independent.
    sample_stream, slope_root = spawn_streams(seed, 2) if seed is not None else (None, None)
    patches = sample_defective_patches(size, model, num_patches,
                                       seed=sample_stream, min_distance=3,
                                       engine=engine)
    study = SlopeStudy()
    for i, patch in enumerate(patches):
        stream = None if slope_root is None else child_stream(slope_root, i)
        record = estimate_slope(patch, physical_error_rates, shots,
                                seed=stream, engine=engine)
        study.add(record)
    return study


def figure6_curves(
    *,
    defect_free_sizes: Sequence[int] = (3, 5),
    defective_size: int = 5,
    num_defective: int = 2,
    defect_rate: float = 0.02,
    physical_error_rates: Sequence[float] = (0.003, 0.005, 0.008),
    shots: int = 3000,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """LER-vs-p curves for defect-free and defective patches (Fig. 6 shape)."""
    curves: Dict[str, List[Tuple[float, float]]] = {}
    # One child stream per curve plus one for the defect sampling stage.
    n_streams = len(defect_free_sizes) + 1 + num_defective
    streams = spawn_streams(seed, n_streams) if seed is not None else [None] * n_streams
    for i, d in enumerate(defect_free_sizes):
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        results = logical_error_rate_curve(patch, physical_error_rates, shots,
                                           seed=streams[i], engine=engine)
        curves[f"defect-free d={d}"] = [
            (r.physical_error_rate, r.logical_error_rate) for r in results
        ]
    model = DefectModel(LINK_AND_QUBIT, defect_rate)
    defective = sample_defective_patches(defective_size, model, num_defective,
                                         seed=streams[len(defect_free_sizes)],
                                         min_distance=3, engine=engine)
    for i, patch in enumerate(defective):
        metrics = evaluate_patch(patch)
        results = logical_error_rate_curve(
            patch, physical_error_rates, shots,
            seed=streams[len(defect_free_sizes) + 1 + i], engine=engine)
        curves[f"defective l={defective_size} d={metrics.distance} #{i}"] = [
            (r.physical_error_rate, r.logical_error_rate) for r in results
        ]
    return curves


def figure11_postselection(
    study: SlopeStudy,
    keep_fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
) -> Dict[str, List[Tuple[float, float, float]]]:
    """Mean and worst slope of the kept chiplets vs keep-fraction.

    Returns, per strategy, tuples ``(fraction, mean_slope, worst_slope)``.
    The chosen-indicator ranking should dominate the faulty-count baseline,
    which is the Fig. 11 message.
    """
    metrics = [r.metrics for r in study.records]
    slopes = [r.slope for r in study.records]
    usable = [i for i, s in enumerate(slopes) if s is not None]
    out: Dict[str, List[Tuple[float, float, float]]] = {"baseline": [], "chosen": []}
    if not usable:
        return out
    rankings = {
        "chosen": [i for i in rank_by_chosen_indicators(metrics) if i in usable],
        "baseline": [i for i in rank_by_faulty_count(metrics) if i in usable],
    }
    for name, ranking in rankings.items():
        for fraction in keep_fractions:
            kept = select_fraction(ranking, fraction)
            kept_slopes = [slopes[i] for i in kept]
            out[name].append(
                (fraction, float(np.mean(kept_slopes)), float(min(kept_slopes)))
            )
    return out


# ----------------------------------------------------------------------
# Figures 12, 13, 17: yield and cost per logical qubit
# ----------------------------------------------------------------------
def _yield_and_cost(
    defect_model_kind: str,
    target_distance: int,
    chiplet_sizes: Sequence[int],
    defect_rates: Sequence[float],
    samples: int,
    allow_rotation: bool,
    seed: Seed,
    engine: Optional[Engine] = None,
) -> List[OverheadPoint]:
    study = OverheadStudy(
        target_distance=target_distance,
        defect_model_kind=defect_model_kind,
        chiplet_sizes=chiplet_sizes,
        defect_rates=defect_rates,
        samples=samples,
        allow_rotation=allow_rotation,
        seed=seed,
        engine=_pool_engine(engine),
    )
    return study.run()


def figure12_yield(
    *,
    target_distance: int = 9,
    chiplet_sizes: Sequence[int] = (9, 11, 13),
    defect_rates: Sequence[float] = (0.0, 0.002, 0.005, 0.01, 0.02),
    samples: int = 100,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[OverheadPoint]]:
    """Fig. 12: defective links only; yield (a) and scaled cost (b).

    The ``chiplet_sizes[0] == target_distance`` row doubles as the
    defect-intolerant baseline (an l = d chiplet tolerates no defect).
    """
    points = _yield_and_cost(LINK_ONLY, target_distance, chiplet_sizes,
                             defect_rates, samples, False, seed, engine)
    baseline = [
        OverheadPoint(
            chiplet_size=target_distance, defect_rate=rate,
            target_distance=target_distance,
            yield_fraction=defect_intolerant_yield(
                target_distance, DefectModel(LINK_ONLY, rate)),
            cost_per_logical_qubit=float("nan"),
            overhead=defect_intolerant_overhead(
                target_distance, DefectModel(LINK_ONLY, rate), target_distance),
        )
        for rate in defect_rates
    ]
    return {"super-stabilizer": points, "defect-intolerant-baseline": baseline}


def figure13_yield(
    *,
    target_distance: int = 9,
    chiplet_sizes: Sequence[int] = (9, 11, 13),
    defect_rates: Sequence[float] = (0.0, 0.002, 0.005, 0.01),
    samples: int = 100,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[OverheadPoint]]:
    """Fig. 13: links and qubits faulty at the same rate."""
    points = _yield_and_cost(LINK_AND_QUBIT, target_distance, chiplet_sizes,
                             defect_rates, samples, False, seed, engine)
    baseline = [
        OverheadPoint(
            chiplet_size=target_distance, defect_rate=rate,
            target_distance=target_distance,
            yield_fraction=defect_intolerant_yield(
                target_distance, DefectModel(LINK_AND_QUBIT, rate)),
            cost_per_logical_qubit=float("nan"),
            overhead=defect_intolerant_overhead(
                target_distance, DefectModel(LINK_AND_QUBIT, rate), target_distance),
        )
        for rate in defect_rates
    ]
    return {"super-stabilizer": points, "defect-intolerant-baseline": baseline}


def figure17_yield(
    *,
    target_distance: int = 13,
    chiplet_sizes: Sequence[int] = (13, 15, 17),
    defect_rates: Sequence[float] = (0.0, 0.002, 0.005, 0.01),
    samples: int = 60,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[OverheadPoint]]:
    """Fig. 17: the same study for a larger target distance (paper: d=17, l up to 27)."""
    points = _yield_and_cost(LINK_ONLY, target_distance, chiplet_sizes,
                             defect_rates, samples, False, seed, engine)
    return {"super-stabilizer": points}


# ----------------------------------------------------------------------
# Figures 14-16: boundaries and rotation
# ----------------------------------------------------------------------
def figure14_merge_example(*, size: int = 9) -> Dict[str, int]:
    """A concrete Fig. 14 instance: two patches whose individual distances stay
    high but whose merged seam distance drops because deformations align."""
    layout = RotatedSurfaceCodeLayout(size)
    # A defect near the *bottom* boundary of patch A and one near the *top*
    # boundary of patch B, at the same horizontal position: after merging A's
    # bottom edge with B's top edge, the seam is deformed at that column twice.
    mid_x = size if size % 2 == 1 else size - 1
    patch_a = adapt_patch(layout, DefectSet.of(qubits=[(mid_x, 2 * size - 1)]))
    patch_b = adapt_patch(layout, DefectSet.of(qubits=[(mid_x, 1)]))
    return {
        "patch_a_distance": evaluate_patch(patch_a).distance,
        "patch_b_distance": evaluate_patch(patch_b).distance,
        "merged_seam_distance": merged_seam_distance(patch_a, patch_b, "bottom"),
        "intact_seam_distance": size,
    }


def figure15_boundary(
    *,
    chiplet_size: int = 11,
    target_distance: int = 9,
    defect_rates: Sequence[float] = (0.002, 0.005, 0.01),
    samples: int = 100,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 15: yield under the four boundary standards (plus no requirement)."""
    standards = {
        "no requirement": None,
        "standard 1": STANDARD_1.with_target(target_distance),
        "standard 2": STANDARD_2.with_target(target_distance),
        "standard 3": STANDARD_3.with_target(target_distance),
        "standard 4": STANDARD_4.with_target(target_distance),
    }
    criterion = DistanceCriterion(target_distance)
    out: Dict[str, List[Tuple[float, float]]] = {name: [] for name in standards}
    for i, rate in enumerate(defect_rates):
        model = DefectModel(LINK_AND_QUBIT, rate)
        # Common random numbers: every standard judges the *same* sampled
        # chiplets at a given rate, so stricter standards have exactly lower
        # yield (a standard's accepted set is a subset of "no requirement").
        # The old ``seed + hash(name) % 1000`` both unpaired the comparison
        # and depended on string-hash randomisation between processes.
        cell = None if seed is None else child_stream(seed, i)
        for name, standard in standards.items():
            estimator = YieldEstimator(
                chiplet_size, model, criterion, boundary_standard=standard,
                seed=cell,
            )
            result = estimator.run(samples, engine=_pool_engine(engine))
            out[name].append((rate, result.yield_fraction))
    return out


def figure16_rotation(
    *,
    chiplet_sizes: Sequence[int] = (11, 13),
    target_distance: int = 9,
    defect_rates: Sequence[float] = (0.002, 0.005, 0.01),
    samples: int = 100,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 16: yield with and without the data/syndrome swap freedom."""
    criterion = DistanceCriterion(target_distance)
    out: Dict[str, List[Tuple[float, float]]] = {}
    for size in chiplet_sizes:
        for allow_rotation in (False, True):
            label = f"l={size}" + (" (rotation)" if allow_rotation else "")
            series = []
            for rate in defect_rates:
                model = DefectModel(LINK_AND_QUBIT, rate)
                estimator = YieldEstimator(size, model, criterion,
                                           allow_rotation=allow_rotation,
                                           seed=seed)
                series.append((rate,
                               estimator.run(samples,
                                             engine=_pool_engine(engine)).yield_fraction))
            out[label] = series
    return out


# ----------------------------------------------------------------------
# Figures 18-19
# ----------------------------------------------------------------------
def figure18_envelope(
    *,
    target_distances: Sequence[int] = (7, 9),
    chiplet_sizes_by_target: Optional[Dict[int, Sequence[int]]] = None,
    defect_rates: Sequence[float] = (0.002, 0.005, 0.01),
    defect_model_kind: str = LINK_ONLY,
    allow_rotation: bool = False,
    samples: int = 80,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[int, Dict[float, OverheadPoint]]:
    """Fig. 18: minimum extra overhead vs defect rate, per target distance."""
    out: Dict[int, Dict[float, OverheadPoint]] = {}
    for target in target_distances:
        sizes = (chiplet_sizes_by_target or {}).get(
            target, tuple(target + 2 * k for k in range(0, 3))
        )
        points = _yield_and_cost(defect_model_kind, target, sizes, defect_rates,
                                 samples, allow_rotation, seed, engine)
        out[target] = OverheadStudy.envelope(points)
    return out


def figure19_distance_distribution(
    *,
    chiplet_size: int = 15,
    defect_rate: float = 0.003,
    defect_model_kind: str = LINK_AND_QUBIT,
    target_distance: int = 9,
    samples: int = 200,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[int, float]:
    """Fig. 19: the code-distance distribution of sampled chiplets.

    Paper scale uses l = 33 at 0.1% and l = 39 at 0.3% with 10000 samples;
    the default here keeps the same defect-per-chiplet regime at l = 15.
    """
    model = DefectModel(defect_model_kind, defect_rate)
    estimator = YieldEstimator(chiplet_size, model,
                               DistanceCriterion(target_distance), seed=seed)
    result = estimator.run(samples, engine=_pool_engine(engine))
    return result.distance_distribution()


def figure20_cutoff(**kwargs) -> CutoffStudy:
    """Fig. 20: stability-experiment cutoff-fidelity study (see run_cutoff_study)."""
    return run_cutoff_study(**kwargs)


# ----------------------------------------------------------------------
# Tables 1-4
# ----------------------------------------------------------------------
def table1_and_2_resources(
    *,
    defect_rate: float = 0.001,
    chiplet_size: Optional[int] = None,
    workload: ShorWorkload = ShorWorkload(),
    samples: int = 50,
    seed: Seed = None,
    engine: Optional[Engine] = None,
) -> Dict[str, ResourceEstimate]:
    """Tables 1-2: resource estimates for the Shor-2048 device.

    ``chiplet_size`` defaults to the paper's optimum for the given defect rate
    (l = 33 at 0.1%, l = 39 at 0.3%, otherwise target+6).
    """
    model = DefectModel(LINK_AND_QUBIT, defect_rate)
    if chiplet_size is None:
        defaults = {0.001: 33, 0.003: 39}
        chiplet_size = defaults.get(defect_rate, workload.target_distance + 6)
    return {
        "no-defect": estimate_no_defect_resources(workload),
        "defect-intolerant": estimate_defect_intolerant_resources(model, workload),
        "super-stabilizer": estimate_super_stabilizer_resources(
            model, chiplet_size, workload=workload, samples=samples, seed=seed,
            engine=_pool_engine(engine)),
    }


def table3_and_4_fidelity(
    resources: Dict[str, ResourceEstimate],
    *,
    workload: ShorWorkload = ShorWorkload(),
) -> Dict[str, float]:
    """Tables 3-4: application fidelity of each approach.

    The modular super-stabilizer approach uses only accepted chiplets (all of
    which meet the target distance); the monolithic baseline must use every
    patch, including those below the target, so its fidelity is computed from
    the *unselected* distance distribution when available.
    """
    out: Dict[str, float] = {}
    for name, estimate in resources.items():
        out[name] = estimate.fidelity(workload)
    return out
