"""Shared configuration for the benchmark harness.

Every benchmark regenerates the data behind one figure or table of the paper
at laptop scale (see "Scale mapping" in the README) and prints the
resulting series so the run doubles as a reproduction report.

The ``engine_config`` fixture builds the Monte-Carlo execution engine from
the environment and installs it as the process default, so the same
benchmark run exercises the serial path (no env vars), the process-pool path
(``REPRO_WORKERS=4``), or the cached path (``REPRO_CACHE=.repro-cache``)
without any edits.  LER-based benchmarks always route through the engine
(results bit-identical across worker counts); the yield Monte-Carlo paths
use the pool only when ``REPRO_WORKERS > 1`` (their serial path keeps the
legacy sequential RNG stream for seed compatibility).
"""

import json
from pathlib import Path

import pytest

from repro.engine import Engine, EngineConfig, set_default_engine
from repro.env import env_str

#: Format version of the BENCH_*.json artifacts; bump when the layout of the
#: records below changes so downstream diffing tools can tell.
#: v2: sampler_throughput grew bitgen-vs-exact rng_mode series, and the
#: fast_rng artifact joined the set.
#: v3: sweep_scheduler grew the fused series + fusion counters, and the
#: fused_sweep artifact joined the set.
#: v4: decoder_throughput's mwpm series grew the matcher-tier counters
#: (dp_decodes, tie_fallbacks, tail_fallbacks).
#: v5: sweep_scheduler dropped its "interleaved" (fusion-disabled) series.
#: v6: the extract_tally artifact joined the set.
BENCH_JSON_SCHEMA = 6


@pytest.fixture(scope="session")
def benchmark_seed() -> int:
    """A fixed seed so benchmark numbers are reproducible run to run."""
    return 20240427


@pytest.fixture(scope="session", autouse=True)
def engine_config() -> EngineConfig:
    """Engine configuration from REPRO_WORKERS / REPRO_CACHE / REPRO_SHARD_SIZE.

    Autouse: the configured engine becomes the process-wide default, so every
    experiment driver in the benchmark suite runs through it.
    """
    config = EngineConfig.from_env()
    set_default_engine(Engine(config))
    yield config
    set_default_engine(None)


def print_series(title: str, rows) -> None:
    """Print a small table of (label, value) rows under a title."""
    print(f"\n=== {title} ===")
    for row in rows:
        print("   ", row)


def write_bench_json(name: str, series, **extra) -> Path:
    """Write a machine-readable ``BENCH_<name>.json`` next to the tee'd text.

    ``series`` is a list of flat dicts (one per measured configuration, with
    a ``label`` and the shots/sec numbers); ``extra`` lands at the top level
    (gates, engine knobs, host facts).  The CI benchmark job uploads these
    files in the BENCH artifact alongside the ``bench-*.txt`` transcripts,
    so the perf trajectory is diffable across PRs instead of buried in logs.
    Output directory defaults to the working directory and can be redirected
    with ``REPRO_BENCH_DIR``.
    """
    out_dir = Path(env_str("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    body = {
        "schema_version": BENCH_JSON_SCHEMA,
        "benchmark": name,
        "series": list(series),
        **extra,
    }
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
