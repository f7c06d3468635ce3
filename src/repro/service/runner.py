"""The worker drain loop: claim → execute → stream partials → finish.

``python -m repro.service.worker`` runs one of these per process.  Workers
share nothing but the SQLite job store (and, transitively, the on-disk
result cache): any number of them can drain one queue from any number of
shells or hosts with the database file in common.

Execution routes through the ordinary :class:`~repro.engine.Engine`, built
from the worker's environment (``REPRO_WORKERS`` / ``REPRO_BACKEND`` /
``REPRO_HOSTS``) with the *job's* shard size — so a service worker can
itself fan shards out over a local pool or a socket fleet, and the numbers
are still exactly what a direct library call would produce.  The worker's
``--cache`` directory (default ``REPRO_CACHE``) is that engine's
``cache_dir``, the one place its result records and its decoders' syndrome
memos are saved — so a restarted worker's first shard starts warm.

Fault model (the reason killing a worker loses nothing):

* The claim takes a **lease**; every merged scheduler wave heartbeats it
  forward and persists a partial result (failures/shots/Wilson CI).  A
  killed worker stops heartbeating, its lease expires, and the job is
  claimable again — the next worker re-runs it from scratch and gets
  bit-identical numbers, because all randomness is pinned by the spec.
* Completion is ownership-guarded: a worker that lost its lease (or whose
  job was cancelled mid-run) is told so at the next wave boundary, aborts
  the engine run, and discards its work without writing anything.
"""

from __future__ import annotations

import argparse
import os
import socket
import time
import uuid
from dataclasses import replace
from typing import Dict, Optional

from ..analysis.stats import wilson_interval
from ..engine.cache import ResultCache
from ..engine.executor import Engine, EngineConfig, WaveUpdate
from ..env import env_str
from .config import service_db_path, service_lease_seconds, service_poll_seconds
from .scheduler import JobScheduler, SchedulerConfig
from .specs import spec_cache_keys, sweep_items, yield_job
from .store import Job, JobStore

__all__ = ["ServiceWorker", "JobCancelled", "JobLost", "main"]


class JobCancelled(Exception):
    """The job was cancelled while we were running it; abort and discard."""


class JobLost(Exception):
    """Another worker owns the job now (our lease expired); abort quietly."""


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class ServiceWorker:
    """Claims and executes jobs from a :class:`JobStore` (see module doc)."""

    def __init__(
        self,
        store: JobStore,
        *,
        worker_id: Optional[str] = None,
        lease_seconds: Optional[float] = None,
        cache_dir: Optional[str] = None,
        engine_config: Optional[EngineConfig] = None,
        scheduler: Optional[JobScheduler] = None,
    ):
        self.store = store
        self.worker_id = worker_id or _default_worker_id()
        self.lease_seconds = (service_lease_seconds()
                              if lease_seconds is None else lease_seconds)
        if self.lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.cache_dir = cache_dir if cache_dir else None
        self._base_config = engine_config or EngineConfig.from_env()
        self.scheduler = scheduler or JobScheduler(
            ResultCache(self.cache_dir) if self.cache_dir else None,
            SchedulerConfig.from_env())
        self._engines: Dict[int, Engine] = {}

    # ------------------------------------------------------------------
    def _engine_for(self, shard_size: int) -> Engine:
        """A memoised engine per shard size (jobs pin their shard split)."""
        engine = self._engines.get(shard_size)
        if engine is None:
            engine = Engine(replace(self._base_config,
                                    shard_size=shard_size,
                                    cache_dir=self.cache_dir))
            self._engines[shard_size] = engine
        return engine

    # ------------------------------------------------------------------
    # Claim
    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[Job]:
        """Rank runnable jobs and atomically claim the best one.

        Ranking happens outside any lock (it probes the result cache on
        disk); the claim itself is a compare-and-swap, so losing a race
        just means trying the next candidate.
        """
        candidates = self.store.runnable_jobs()
        if not candidates:
            return None
        now = time.time()
        for job in self.scheduler.rank(candidates, now):
            claimed = self.store.try_claim(job.id, self.worker_id,
                                           self.lease_seconds)
            if claimed is not None:
                return claimed
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim and fully process one job; False when the queue is idle."""
        job = self.claim_next()
        if job is None:
            return False
        self._execute(job)
        return True

    def drain(self, max_jobs: Optional[int] = None) -> int:
        """Process jobs until the queue has nothing runnable; returns count."""
        done = 0
        while max_jobs is None or done < max_jobs:
            if not self.run_once():
                break
            done += 1
        return done

    def run_forever(self, poll_seconds: Optional[float] = None) -> None:
        """The service loop: drain, then sleep-poll for new work."""
        poll = service_poll_seconds() if poll_seconds is None else poll_seconds
        while True:
            if not self.run_once():
                time.sleep(poll)

    # ------------------------------------------------------------------
    def _progress(self, job: Job, *, partial: Optional[dict] = None,
                  event: Optional[dict] = None) -> None:
        """Heartbeat; raises if the job is no longer ours to run."""
        status = self.store.record_progress(job.id, self.worker_id,
                                            self.lease_seconds,
                                            partial=partial, event=event)
        if status == "cancelled":
            raise JobCancelled(job.id)
        if status == "lost":
            raise JobLost(job.id)

    def _execute(self, job: Job) -> None:
        try:
            self._progress(job, event={"type": "claimed",
                                       "worker": self.worker_id,
                                       "attempt": job.attempts})
            if job.spec["kind"] in ("ler", "sweep"):
                result = self._execute_ler(job)
            else:
                result = self._execute_yield(job)
        except (JobCancelled, JobLost):
            return  # the store already reflects the outcome; discard quietly
        except Exception as exc:
            self.store.fail(job.id, self.worker_id,
                            f"{type(exc).__name__}: {exc}")
            return
        self.store.finish(job.id, self.worker_id, result)

    def _execute_ler(self, job: Job) -> dict:
        spec = job.spec
        items = sweep_items(spec)
        engine = self._engine_for(spec["shard_size"])

        def on_wave(update: WaveUpdate) -> None:
            low, high = wilson_interval(update.failures, update.shots)
            partial = {
                "item": update.index,
                "wave": update.wave,
                "failures": update.failures,
                "shots": update.shots,
                "ler": update.failures / update.shots,
                "ci_low": low,
                "ci_high": high,
            }
            self._progress(job, partial=partial,
                           event={"type": "wave", **partial})

        results = engine.run_sweep(items, on_wave=on_wave)
        keys = spec_cache_keys(spec)
        payload = []
        for r, key in zip(results, keys):
            low, high = wilson_interval(r.failures, r.shots)
            payload.append({
                "failures": r.failures,
                "shots": r.shots,
                "ler": r.failures / r.shots,
                "ci_low": low,
                "ci_high": high,
                "num_shards": r.num_shards,
                "num_detectors": r.num_detectors,
                "num_dem_errors": r.num_dem_errors,
                "from_cache": r.from_cache,
                "cache_key": key,
            })
        return {"kind": spec["kind"], "results": payload}

    def _execute_yield(self, job: Job) -> dict:
        spec = job.spec
        task, seed = yield_job(spec)
        engine = self._engine_for(EngineConfig().shard_size)
        result = engine.run_yield(task, seed=seed)
        # Yield runs are a single fan-out (no waves); one progress beat
        # covers lease renewal for queues of many small yield jobs.
        self._progress(job)
        return {
            "kind": "yield",
            "samples": result.samples,
            "accepted": result.accepted,
            "yield": result.accepted / result.samples,
            "distance_counts": {str(d): c for d, c in
                                sorted(result.distance_counts.items())},
            "accepted_distance_counts": {
                str(d): c for d, c in
                sorted(result.accepted_distance_counts.items())},
            "from_cache": result.from_cache,
            "cache_key": spec_cache_keys(spec)[0],
        }


# ----------------------------------------------------------------------
# Entry point (python -m repro.service.worker)
# ----------------------------------------------------------------------
def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.worker",
        description="Drain estimation jobs from a repro.service job store.",
    )
    parser.add_argument("--db", default=None,
                        help="job-store SQLite path (default:"
                             " REPRO_SERVICE_DB or .repro-service.db)")
    parser.add_argument("--cache", default=None,
                        help="result-cache directory shared with other"
                             " workers (default: REPRO_CACHE)")
    parser.add_argument("--lease", type=float, default=None,
                        help="lease seconds (default: REPRO_SERVICE_LEASE)")
    parser.add_argument("--poll", type=float, default=None,
                        help="idle poll seconds (default: REPRO_SERVICE_POLL)")
    parser.add_argument("--drain", action="store_true",
                        help="exit once the queue has nothing runnable"
                             " instead of polling forever")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit after processing this many jobs")
    args = parser.parse_args(argv)

    store = JobStore(args.db or service_db_path())
    cache_dir = args.cache if args.cache is not None \
        else env_str("REPRO_CACHE")
    worker = ServiceWorker(store, lease_seconds=args.lease,
                           cache_dir=cache_dir)
    # The one line launchers parse; flush so pipes see it immediately.
    print(f"REPRO_SERVICE_WORKER_READY {worker.worker_id}", flush=True)
    try:
        if args.drain or args.max_jobs is not None:
            count = worker.drain(args.max_jobs)
            print(f"REPRO_SERVICE_WORKER_DRAINED {worker.worker_id} {count}",
                  flush=True)
        else:
            worker.run_forever(args.poll)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    main()
