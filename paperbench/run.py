"""Paper-workload benchmark for the repro engine.

Usage, from the root of a checkout::

    python3 paperbench/run.py --workload ler_sweep --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``ler_sweep``, ``ler_lowp``,
``yield_sweep``, or ``all`` to run the three in turn.

With ``--trace 0`` the run repeats the workload, each repetition in a fresh
process with a cold two-worker pool (``REPRO_WORKERS=2``), and reports the
median over repetitions of the end-to-end metrics:

* ``wall_s`` - timed phase, first engine call to last result;
* ``setup_s`` - process launch to the timed phase (imports, building tasks
  and patches, starting the pool);
* ``cpu_s`` - user+sys CPU of the repetition's process and its pool workers
  over the timed phase;
* ``peak_rss_mb`` - largest peak RSS of that process or any worker.

``failed_frac`` (points that raised or failed a check, over points run) is
printed with them; the JSON line carries it as ``failed``/``attempted``.

With ``--trace 1`` the run makes one untraced and one traced repetition;
the traced one timestamps the engine's waves and then replays the plan
serially under per-layer spans, and reports the per-layer metrics.

Every repetition's outputs are checked (``workloads.check_points``); for
the default seed its counts must also equal the pinned ``reference.json``,
and a traced replay must reproduce the engine's counts exactly.  Any
failure makes the run exit non-zero.  Every inherited ``REPRO_*`` variable
is stripped; each repetition sees only its workload's own.  Records, host
facts and trace spans go to ``.bench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from procfs import process_group

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
WORKERS = 2
#: Budget of one workload's repetitions (a run must end within 180 s).
RUN_BUDGET_S = 170.0
MIN_REPS = 3
#: Every workload is sized to a timed phase of about this long on a
#: 2-CPU host; a run makes ``--seconds / REP_SECONDS`` repetitions.
REP_SECONDS = 5.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _fail(message: str) -> None:
    print(f"paperbench: {message}", file=sys.stderr)
    sys.exit(2)


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a repetition's process group and wait."""
    deadline = time.monotonic() + 10.0
    while True:
        pids = process_group(pgid)
        if not pids:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} did not exit")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        time.sleep(0.05)


def run_rep(workload, seed: int, rep: int, traced: bool, scratch: Path,
            deadline: float) -> dict:
    """One repetition in a fresh process; returns its record."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_WORKERS"] = str(WORKERS)
    env.update(workload.env)
    if workload.fresh_cache:
        cache = scratch / f"cache-{rep}-{int(traced)}"
        env["REPRO_CACHE"] = str(cache)
    cmd = [sys.executable, str(HERE / "rep.py"), workload.name, str(seed),
           str(rep), "1" if traced else "0", str(scratch)]
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise RuntimeError(f"repetition {rep} exceeded the run budget")
    finally:
        _stop_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {rep} exited {proc.returncode}:\n"
                           f"{err.strip()[-2000:]}")
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"repetition {rep} printed no record") from None
    record["setup_s"] = record["t_start"] - launched
    return record


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def _reference(workload: str, seed: int, rep: int):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    pins = json.loads(REFERENCE.read_text())
    return pins.get(workload, {}).get(str(rep))


def _format_pins(pins: dict) -> str:
    """reference.json text: one line per workload repetition."""
    blocks = []
    for name in sorted(pins):
        reps = ",\n".join(f'  "{rep}": {json.dumps(pins[name][rep])}'
                          for rep in sorted(pins[name], key=int))
        blocks.append(f' "{name}": {{\n{reps}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def run_workload(workload, seed: int, seconds: int, traced: bool,
                 pin: bool) -> dict:
    import workloads as wl

    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = OUT / f"{workload.name}-s{seed}-t{int(traced)}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    reps = max(MIN_REPS, round(seconds / REP_SECONDS))
    plan = [(0, False), (0, True)] if traced else [(r, False) for r in range(reps)]
    records, problems = [], []
    attempted = failed = 0
    try:
        for rep, tr in plan:
            try:
                rec = run_rep(workload, seed, rep, tr, scratch, deadline)
            except RuntimeError as exc:
                problems.append(f"rep {rep}: {exc}")
                attempted += 1
                failed += 1
                break
            points = rec["points"]
            bad = {}
            reference = None if pin else _reference(workload.name, seed, rep)
            checks = [wl.check_points(workload, points),
                      wl.compare_pinned(workload, points, reference)]
            if tr:
                checks.append({i: f"replay gave {got}"
                               for i, (got, pt) in enumerate(
                                   zip(rec["replay"], points))
                               if any(pt[k] != v for k, v in got.items())})
            for found in checks:
                for i, why in found.items():
                    bad.setdefault(i, []).append(why)
            attempted += len(points)
            failed += len(bad)
            problems += [f"rep {rep}: {wl.label(points[i])}: {'; '.join(w)}"
                         for i, w in sorted(bad.items())]
            records.append(rec)
        spans = scratch / "spans.json"
        span_list = json.loads(spans.read_text()) if spans.exists() else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [r for r, (_, tr) in zip(records, plan) if not tr]
    metrics = {}
    if untraced:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(r[name] for r in untraced),
                             "unit": unit}
    layers = {}
    if traced and len(records) == 2:
        layers = dict(records[1]["layers"])
        layers["trace.overhead_frac"] = (records[1]["wall_s"]
                                         / records[0]["wall_s"] - 1.0)
    if pin and not traced and seed == DEFAULT_SEED and not problems:
        pins = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        pins[workload.name] = {str(rep): wl.pinned_counts(workload, r["points"])
                               for r, (rep, _) in zip(records, plan)}
        REFERENCE.write_text(_format_pins(pins))
    result = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": records[0]["numpy"] if records else None,
                 "commit": _git_commit(),
                 "workers": WORKERS},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
        "records": records,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{seed}-trace{int(traced)}"
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1))
    if span_list:
        (OUT / f"{name}-spans.json").write_text(json.dumps(span_list))
    return result


def report(result: dict, units: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['traced'])} "
          f"({len(result['records'])} repetitions)")
    untraced = [r for r in result["records"] if "layers" not in r]
    for name, m in result["metrics"].items():
        reps = ", ".join(f"{r[name]:.3f}" for r in untraced)
        print(f"  {name:<14} {m['value']:10.4f} {m['unit']:<6} reps: {reps}")
    attempted = max(result["attempted"], 1)
    print(f"  {'failed_frac':<14} {result['failed'] / attempted:10.4f} "
          f"{'-':<6} ({result['failed']}/{result['attempted']} points)")
    for name, value in sorted(result["layers"].items()):
        print(f"  {name:<32} {value:14.6g} {units.get(name, '')}")
    if result["traced"] and result["records"]:
        shares = result["records"][-1].get("shares", {})
        print("  layer self-time shares: " + ", ".join(
            f"{n} {s:.1%}" for n, s in sorted(shares.items(),
                                              key=lambda kv: -kv[1])))
    host = result["host"]
    fusion = [r.get("fusion") for r in result["records"] if r.get("fusion")]
    print(f"  host: cpus={host['cpus']} python={host['python']} "
          f"numpy={host['numpy']} commit={host['commit']} "
          f"seed={result['seed']} workers={host['workers']}")
    steal = ", ".join(f"{r['steal_s']:.2f}" for r in result["records"])
    print(f"  host steal during timed phases (s): {steal}")
    for f in fusion:
        print(f"  fusion: dispatches={f['dispatches']} "
              f"fused_groups={f['fused_groups']} "
              f"fused_shot_fraction={f['fused_shot_fraction']:.3f}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the workload's pinned counts in "
                             "reference.json from this default-seed run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in wl.WORKLOADS for n in names):
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = [run_workload(wl.WORKLOADS[n], args.seed, args.seconds,
                            bool(args.trace), args.pin)
               for n in names]
    metrics = {}
    for result in results:
        report(result, units)
        found = result["metrics"]
        if args.trace:
            layers = result["layers"]
            if layers and set(layers) != set(units):
                raise RuntimeError("traced metrics differ from BENCHMARK.json: "
                                   f"{sorted(set(layers) ^ set(units))}")
            found = {k: {"value": v, "unit": units[k]}
                     for k, v in sorted(layers.items())}
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update((prefix + k, v) for k, v in found.items())
    correct = all(not r["problems"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": max(sum(r["attempted"] for r in results), 1),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
