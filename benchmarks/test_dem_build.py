"""DEM build benchmark: one-shot reference vs structure pass vs per-p fold.

``build_detector_error_model`` splits into a p-free structure pass, cached
per circuit structure, and a per-p fold of the probabilities.  For the
defect-free memory circuit at d = 3, 5, 7, 9 (d rounds) this records, as the
median of ``_REPEATS`` timed calls each:

* ``reference_ms`` - the frozen one-shot builder (``tests/dem_reference.py``),
  what every (task, worker) pair paid before the split;
* ``structure_ms`` - the structure pass alone (a template-cache miss);
* ``fold_ms`` - a warm build at a *different* noise rate than the one that
  built the template: structure key, cache hit and fold, which is what
  every further point of a p-sweep on one geometry pays.

Identity is asserted at both noise rates (``DemError`` lists, probabilities
compared with ``==``).  The one timing gate is deliberately loose (the
warm build must beat the reference by 5x at d=5, where ~50x was measured),
so a loaded host cannot trip it; the series lands in BENCH_dem_build.json.
"""

import statistics
import sys
import time
from pathlib import Path

from repro.core.adaptation import adapt_patch
from repro.noise.circuit_noise import CircuitNoiseModel
from repro.noise.fabrication import DefectSet
from repro.stabilizer import dem as dem_module
from repro.stabilizer.dem import build_detector_error_model
from repro.surface_code.circuits import build_memory_circuit
from repro.surface_code.layout import RotatedSurfaceCodeLayout

from conftest import print_series, write_bench_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from dem_reference import build_detector_error_model as reference_dem  # noqa: E402

_DISTANCES = (3, 5, 7, 9)
_P_BUILD = 0.008   # builds the template
_P_SWEEP = 0.004   # a later point of the same sweep: fold only
_REPEATS = 3
_GATE_DISTANCE = 5
_GATE_RATIO = 5.0


def _median_ms(fn) -> float:
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def test_dem_build_structure_and_fold():
    rows, series, ratios = [], [], {}
    for d in _DISTANCES:
        patch = adapt_patch(RotatedSurfaceCodeLayout(d), DefectSet.of())
        built = build_memory_circuit(patch, CircuitNoiseModel.standard(_P_BUILD), d)
        swept = build_memory_circuit(patch, CircuitNoiseModel.standard(_P_SWEEP), d)

        dem_module._TEMPLATES.clear()
        cold = build_detector_error_model(built)
        assert cold.errors == reference_dem(built).errors
        warm = build_detector_error_model(swept)
        assert warm.errors == reference_dem(swept).errors

        reference_ms = _median_ms(lambda: reference_dem(built))
        structure_ms = _median_ms(
            lambda: dem_module._structure_pass(built, True))
        fold_ms = _median_ms(lambda: build_detector_error_model(swept))
        ratios[d] = reference_ms / fold_ms
        rows.append((f"d={d}", f"reference {reference_ms:7.1f} ms, "
                     f"structure {structure_ms:6.1f} ms, "
                     f"fold {fold_ms:5.2f} ms, "
                     f"sweep-point speedup {ratios[d]:6.1f}x"))
        series.append({
            "label": f"d={d}",
            "distance": d,
            "rounds": d,
            "mechanisms": len(cold),
            "reference_ms": reference_ms,
            "structure_ms": structure_ms,
            "fold_ms": fold_ms,
            "cold_speedup": reference_ms / (structure_ms + fold_ms),
            "sweep_point_speedup": ratios[d],
        })

    print_series("DEM build: one-shot reference vs structure pass vs fold",
                 rows)
    write_bench_json("dem_build", series, repeats=_REPEATS,
                     noise_rates={"build": _P_BUILD, "sweep": _P_SWEEP},
                     gates={f"d{_GATE_DISTANCE}_sweep_point": _GATE_RATIO})
    assert ratios[_GATE_DISTANCE] >= _GATE_RATIO, ratios
