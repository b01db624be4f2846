"""The $heriff service core: transport-free application logic.

:class:`SheriffService` is the hexagon's inside -- everything the HTTP
adapter (:mod:`repro.serve.app`) exposes, expressed as plain methods on
plain dicts, so tests can drive it without a socket and a future
transport (CLI, gRPC, queue worker) can reuse it unchanged.

Design notes:

* **Single checks** run against one long-lived serving context (world +
  :class:`~repro.core.backend.SheriffBackend`) built from the service's
  ``(scale, seed)``.  The backend's :class:`~repro.core.burstcache.
  BurstCache` is therefore shared across requests -- it *is* the serving
  cache; repeat checks of a hot product are memo hits at sub-millisecond
  cost.  A lock serializes checks: the simulation's determinism contract
  keys every draw by check identity, and the check counter, session
  state, and memo are shared mutable state.  The first check served by a
  fresh service is byte-identical to the batch path's first check on an
  identically-built context (``tests/test_serve.py`` pins this).
* **Campaign jobs** each regrow their *own* world from the job spec --
  campaign determinism requires a world whose entire history is the
  campaign itself, so jobs never touch the serving context or its cache.
  Each job runs on a daemon thread under ``run_campaign(...,
  checkpoint_dir=..., resume=True)``: every completed day is durably
  committed, so a SIGKILL of the whole service loses at most the day in
  flight, and a restarted service resumes the job from its checkpoint
  (:meth:`SheriffService.start` scans the registry).  Per-job supervision
  counters come from :class:`~repro.exec.FleetHealthScope` -- the
  process-wide accumulator would mix concurrent jobs.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional

from repro.core.backend import CheckRequest, SheriffBackend
from repro.ecommerce.world import build_world
from repro.exec import FleetHealthScope, fleet_health
from repro.experiments.context import ExperimentContext
from repro.io import report_to_dict, save_crowd_dataset
from repro.serve.jobs import Job, JobRegistry, JobSpec

__all__ = [
    "BadRequest",
    "Conflict",
    "NotFound",
    "ServiceError",
    "SheriffService",
    "encode_report",
]


class ServiceError(Exception):
    """A client-visible failure; ``status`` is its HTTP mapping."""

    status = 500


class BadRequest(ServiceError):
    """Malformed payload or spec (400)."""

    status = 400


class NotFound(ServiceError):
    """Unknown domain, job, or route (404)."""

    status = 404


class Conflict(ServiceError):
    """Right route, wrong job state -- e.g. results of a running job (409)."""

    status = 409


def encode_report(report) -> bytes:
    """The served wire form of one check report.

    Exactly the batch path's :func:`repro.io.report_to_dict` under
    canonical JSON -- the byte-identity contract between the service and
    offline runs is this function.
    """
    return json.dumps(report_to_dict(report), sort_keys=True).encode("utf-8")


class SheriffService:
    """Job registry + serving context behind the HTTP routes."""

    def __init__(
        self,
        *,
        scale: str = "tiny",
        seed: int = 2013,
        data_dir: Path,
        exec_config=None,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.exec_config = exec_config
        self.registry = JobRegistry(Path(data_dir) / "jobs")
        self._ctx = ExperimentContext(scale, seed=seed)
        self._check_lock = threading.Lock()
        self._checks_served = 0
        self._started = time.perf_counter()
        self._threads: dict[str, threading.Thread] = {}

    @property
    def world(self):
        """The serving context's world (traffic generators, tests)."""
        return self._ctx.world

    # ------------------------------------------------------------------
    def start(self) -> list[str]:
        """Scan the data dir; resume incomplete jobs.  Returns their ids."""
        resumed = []
        for job in self.registry.scan():
            if job.status not in ("done", "failed"):
                self._launch(job)
                resumed.append(job.id)
        return resumed

    # ------------------------------------------------------------------
    # Single checks
    # ------------------------------------------------------------------
    def check(self, payload: dict) -> bytes:
        """Run one on-demand check; returns the canonical JSON bytes."""
        if not isinstance(payload, dict):
            raise BadRequest("check body must be a JSON object")
        domain = payload.get("domain")
        if not isinstance(domain, str) or not domain:
            raise BadRequest("check body needs a 'domain' string")
        product_index = payload.get("product", 0)
        if not isinstance(product_index, int) or isinstance(product_index, bool):
            raise BadRequest("'product' must be an integer catalog index")
        from repro.analysis.personal import derive_anchor_for_domain

        world = self._ctx.world
        if domain not in world.retailers:
            raise NotFound(f"unknown domain {domain!r}")
        catalog = world.retailer(domain).catalog
        if not 0 <= product_index < len(catalog):
            raise BadRequest(
                f"product index out of range (0..{len(catalog) - 1})"
            )
        product = catalog.products[product_index]
        with self._check_lock:
            anchor = derive_anchor_for_domain(world, domain)
            report = self._ctx.backend.check(CheckRequest(
                url=f"http://{domain}{product.path}", anchor=anchor,
            ))
            self._checks_served += 1
        return encode_report(report)

    # ------------------------------------------------------------------
    # Campaign jobs
    # ------------------------------------------------------------------
    def submit_campaign(self, payload: dict) -> dict:
        """Create + launch a campaign job; returns its status dict."""
        try:
            spec = JobSpec.from_dict(payload)
        except ValueError as exc:
            raise BadRequest(str(exc))
        job = self.registry.create(spec)
        self._launch(job)
        return self.job_status(job.id)

    def job_status(self, job_id: str) -> dict:
        """``GET /jobs/<id>``: progress plus live or persisted job stats."""
        job = self._get(job_id)
        status = {
            "id": job.id,
            "status": job.status,
            "spec": job.spec.to_dict(),
            "checks": {
                "done": job.checks_done(),
                "total": job.checks_total(),
            },
        }
        if job.outcome is not None:
            # Terminal: the persisted outcome carries the final stats
            # (they survive service restarts; runtime state does not).
            for key in ("rows", "memo", "fleet_health", "summary"):
                if key in job.outcome:
                    status[key] = job.outcome[key]
            if job.error:
                status["error"] = job.error
        else:
            memo = job.memo_stats()
            if memo is not None:
                status["memo"] = memo
            health = job.fleet_health()
            if health is not None:
                status["fleet_health"] = health
        return status

    def job_results_path(self, job_id: str) -> Path:
        """The columnar results file of a *finished* job."""
        job = self._get(job_id)
        if job.status == "failed":
            raise Conflict(f"{job.id} failed: {job.error}")
        if job.status != "done" or not job.results_path.exists():
            raise Conflict(
                f"{job.id} is {job.status}; results are available once "
                f"it is done (poll /jobs/{job.id})"
            )
        return job.results_path

    def _get(self, job_id: str) -> Job:
        job = self.registry.get(job_id)
        if job is None:
            raise NotFound(f"no such job {job_id!r}")
        return job

    def _launch(self, job: Job) -> None:
        thread = threading.Thread(
            target=self._run_job, args=(job,),
            name=f"sheriff-{job.id}", daemon=True,
        )
        self._threads[job.id] = thread
        thread.start()

    def _run_job(self, job: Job) -> None:
        job.status = "running"
        scope = job.scope = FleetHealthScope()
        try:
            with scope:
                world = build_world(job.spec.world_config())
                backend = SheriffBackend(
                    world.network, world.vantage_points, world.rates
                )
                job.backend = backend
                from repro.crowd import run_campaign

                # resume=True always: with no manifest it starts fresh,
                # with one it continues -- exactly the restart semantics
                # a durable job wants.
                dataset = run_campaign(
                    world, backend, job.spec.campaign_config(),
                    exec_config=self.exec_config,
                    checkpoint_dir=job.checkpoint_dir, resume=True,
                )
            tmp = job.results_path.with_name(job.results_path.name + ".tmp")
            rows = save_crowd_dataset(dataset, tmp, seed=job.spec.seed)
            os.replace(tmp, job.results_path)
            job.persist_outcome({
                "status": "done",
                "rows": rows,
                "summary": dataset.summary(),
                "memo": job.memo_stats(),
                "fleet_health": scope.snapshot(),
            })
            job.status = "done"
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = f"{exc.__class__.__name__}: {exc}"
            job.persist_outcome({"status": "failed", "error": job.error})
            job.status = "failed"
        finally:
            job.backend = None

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """``GET /healthz``: serving-cache, fleet-health and job counts."""
        stats = self._ctx.backend.cache_stats()
        hits = int(stats["burst_hits"])
        misses = int(stats["burst_misses"])
        total = hits + misses
        jobs = self.registry.jobs()
        by_status: dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "status": "ok",
            "scale": self.scale,
            "seed": self.seed,
            "uptime_s": round(time.perf_counter() - self._started, 3),
            "checks_served": self._checks_served,
            "serving_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            },
            "fleet_health": fleet_health(),
            "jobs": {"total": len(jobs), **by_status},
        }

    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Give running job threads a grace period to reach a day commit.

        Jobs are kill-safe regardless (their checkpoints resume), so
        this only narrows how much in-flight work a graceful shutdown
        re-executes on the next start.
        """
        deadline = time.perf_counter() + timeout
        for thread in self._threads.values():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
