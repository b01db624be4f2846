"""Crash-injection harness: SIGKILL a checkpointed run, resume, compare.

The kit runs a campaign, crawl, or scenario world in a **subprocess**
driven by a JSON spec, optionally self-SIGKILLing at the Nth firing of a
named checkpoint barrier (``repro.checkpoint.barriers``) -- a real
``SIGKILL``, no cleanup handlers, exactly what a crash leaves on disk.
A second driver run with ``resume=True`` continues from the checkpoint;
the host test compares the result files (dataset digest, archive hash
chain, detection scores) against an uninterrupted reference run.

Spec fields (JSON object)::

    kind            "campaign" | "crawl" | "scenario" | "serve"
    world           WorldConfig kwargs           (campaign / crawl kinds)
    scenario        scenario name                (scenario kind)
    seed            run seed                     (default 2013)
    campaign        CampaignConfig kwargs        (campaign kind)
    crawl           CrawlConfig kwargs           (crawl kind)
    plan            {"n_domains": K, "products_per_retailer": P}  (crawl)
    workers, mode   executor cell (1/"local" = inline)
    memo            burst memo on/off (default true)
    checkpoint_dir  where day-segments spill
    resume          continue a committed prefix (default false)
    out             dataset file the driver writes (columnar JSONL)
    result          result JSON the driver writes (atomically, at exit)
    kill            {"point": <barrier name>, "count": N} | null --
                    die at the Nth firing of that barrier
    worker_faults   [{"worker": i, "batch": d, "point": p}, ...] --
                    inject the fault ``p`` (a ``FAULT_POINTS`` name, e.g.
                    SIGKILL worker *i* mid-batch of day-batch *d*) into
                    the run's :class:`ProcessExecutor`; the supervisor
                    must recover and the run must stay byte-identical
    max_worker_restarts   restart budget per shard (default 3)

The result JSON records the saved dataset's SHA-256, row count, the
backend's archive hash chain (chain equality == archive-stream byte
identity), the driver's peak RSS in MB, and -- for scenario runs -- the
detection score against the scenario's ground truth.

To add a kill point: call ``barrier("your-name")`` at the new
crash window, add the name to ``repro.checkpoint.barriers.BARRIER_NAMES``,
and kill specs can target it immediately -- the kit is name-agnostic.

To add a worker-fault schedule: build a :class:`FaultPlan` (explicit
``(worker, batch, point)`` triples, or :meth:`FaultPlan.seeded` for a
deterministic random schedule) and either ``plan.install()`` it around
an in-process run or pass its ``plan.specs()`` as the driver's
``worker_faults`` field.  Coordinator kills (``kill``) and worker faults
(``worker_faults``) compose: a spec can SIGKILL the coordinator at the
``worker-respawn`` barrier while a worker fault is mid-recovery.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

_SELF = Path(__file__).resolve()
_SRC = _SELF.parent.parent / "src"

#: Barrier names worth killing at, re-exported for test parametrization.
#: ``worker-respawn`` is deliberately not here: it only fires while the
#: exec supervisor recovers a dead worker, so it belongs to fault-
#: carrying specs (tests/test_worker_chaos.py), not the plain kill grids.
KILL_POINTS = ("mid-day", "segment-flush", "manifest-mid-write")


# ----------------------------------------------------------------------
# Worker-fault schedules
# ----------------------------------------------------------------------
class FaultPlan:
    """A deterministic worker-fault schedule: kill worker *i* at batch *d*.

    Faults are ``(worker, batch, point)`` triples (``point`` is a
    :data:`repro.exec.process.FAULT_POINTS` name).  The plan is the
    fault hook: the executor consults it at every dispatch -- including
    the re-dispatch after a recovery, so a plan listing the same
    ``(worker, batch)`` twice kills the replacement worker too (how the
    quarantine tests exhaust a restart budget).  Each triple fires once.
    """

    def __init__(self, faults) -> None:
        self._faults: list[tuple[int, int, str]] = [
            (int(w), int(b), str(p)) for w, b, p in faults
        ]

    @classmethod
    def from_specs(cls, specs) -> "FaultPlan":
        """From the driver-spec form: dicts with worker/batch/point."""
        return cls(
            (s["worker"], s["batch"], s["point"]) for s in specs
        )

    @classmethod
    def seeded(cls, seed: int, *, workers: int, batches: int,
               n_faults: int,
               points=("before-batch", "mid-batch", "after-batch"),
               ) -> "FaultPlan":
        """A seeded random schedule -- deterministic chaos.

        Draws ``n_faults`` (worker, batch, point) triples from the full
        grid with an isolated :class:`random.Random`; the same seed
        always produces the same schedule, so a failing chaos run is
        replayable from its seed alone.
        """
        import random

        rng = random.Random(seed)
        return cls(
            (rng.randrange(workers), rng.randrange(batches),
             rng.choice(points))
            for _ in range(n_faults)
        )

    def specs(self) -> list[dict]:
        """The driver-spec form (JSON-ready ``worker_faults`` value)."""
        return [
            {"worker": w, "batch": b, "point": p}
            for w, b, p in self._faults
        ]

    def __call__(self, worker: int, batch: int):
        for i, (w, b, point) in enumerate(self._faults):
            if w == worker and b == batch:
                del self._faults[i]
                return point
        return None

    def install(self):
        """Install as the process-wide fault hook; returns the previous."""
        from repro.exec.process import install_fault_hook

        return install_fault_hook(self)

    def __repr__(self) -> str:
        return f"FaultPlan({self._faults!r})"


# ----------------------------------------------------------------------
# Host side: run the driver in a subprocess
# ----------------------------------------------------------------------
def _driver_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _killpg(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_driver(spec: dict, *, timeout: float = 600.0) -> int:
    """Run one driver subprocess for ``spec``; return its exit code.

    The child gets its own process group so a hung run (and any workers
    it spawned) can be killed as a unit; ``-signal.SIGKILL`` is the
    expected return code of a run that hit its kill point.

    Waits on the driver *process*, never its pipes: a SIGKILLed driver
    running a process-mode cell leaves pool workers behind (they block
    on the pool's call queue, and -- being forked -- they inherit the
    driver's stderr), so pipe EOF would arrive only when the workers
    die.  ``proc.wait`` returns the instant the driver itself does; the
    process-group SIGKILL then reaps the orphans, after which draining
    stderr is safe.
    """
    spec_path = Path(spec["result"]).with_suffix(".spec.json")
    spec_path.parent.mkdir(parents=True, exist_ok=True)
    spec_path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(_SELF), str(spec_path)],
        env=_driver_env(),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _killpg(proc)
        proc.wait()
        raise
    _killpg(proc)
    err = proc.stderr.read()
    proc.stderr.close()
    if proc.returncode not in (0, -signal.SIGKILL):
        raise AssertionError(
            f"driver exited {proc.returncode}:\n{err.decode(errors='replace')}"
        )
    return proc.returncode


def run_until_killed(spec: dict, *, timeout: float = 600.0) -> None:
    """Run a kill-carrying spec; assert the driver really died by SIGKILL."""
    assert spec.get("kill"), "spec has no kill point"
    code = run_driver(spec, timeout=timeout)
    assert code == -signal.SIGKILL, (
        f"expected the driver to be SIGKILLed at "
        f"{spec['kill']['point']}#{spec['kill']['count']}, it exited {code}"
    )


def run_to_completion(spec: dict, *, timeout: float = 600.0) -> dict:
    """Run a spec to completion and return its result JSON."""
    code = run_driver(spec, timeout=timeout)
    assert code == 0, f"driver exited {code}"
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def file_sha256(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Driver side: executed as __main__ in the subprocess
# ----------------------------------------------------------------------
def _install_kill(point: str, count: int) -> None:
    from repro.checkpoint import BARRIER_NAMES, install_barrier_hook

    if point not in BARRIER_NAMES:
        raise ValueError(f"unknown kill point {point!r}")
    fired = [0]

    def hook(name: str) -> None:
        if name == point:
            fired[0] += 1
            if fired[0] == count:
                os.kill(os.getpid(), signal.SIGKILL)

    install_barrier_hook(hook)


def _exec_config(spec: dict):
    from repro.exec import ExecConfig

    workers = int(spec.get("workers", 1))
    mode = spec.get("mode", "local")
    if workers == 1 and mode == "local":
        return None
    return ExecConfig(
        workers=workers, mode=mode,
        max_worker_restarts=int(spec.get("max_worker_restarts", 3)),
    )


def _backend(world, spec: dict):
    from repro.core.backend import SheriffBackend
    from repro.core.burstcache import BurstCache

    return SheriffBackend(
        world.network,
        world.vantage_points,
        world.rates,
        burst_cache=BurstCache(enabled=bool(spec.get("memo", True))),
    )


def _drive_campaign(spec: dict) -> dict:
    from repro.crowd.campaign import CampaignConfig, run_campaign
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.io import save_crowd_dataset

    world = build_world(WorldConfig(**spec.get("world", {})))
    backend = _backend(world, spec)
    dataset = run_campaign(
        world,
        backend,
        CampaignConfig(**spec.get("campaign", {})),
        exec_config=_exec_config(spec),
        checkpoint_dir=spec["checkpoint_dir"],
        resume=bool(spec.get("resume", False)),
    )
    save_crowd_dataset(dataset, spec["out"])
    return {"rows": len(dataset), "archive_chain": backend.store.archive_chain}


def _drive_crawl(spec: dict) -> dict:
    from repro.crawler.crawl import CrawlConfig, run_crawl
    from repro.crawler.plan import build_plan
    from repro.ecommerce.world import WorldConfig, build_world
    from repro.io import save_crawl_dataset

    world = build_world(WorldConfig(**spec.get("world", {})))
    backend = _backend(world, spec)
    plan_spec = spec.get("plan", {})
    plan = build_plan(
        world,
        domains=world.crawled_domains[: int(plan_spec.get("n_domains", 3))],
        products_per_retailer=int(plan_spec.get("products_per_retailer", 3)),
        seed=int(spec.get("seed", 2013)),
    )
    dataset = run_crawl(
        world,
        backend,
        plan,
        CrawlConfig(**spec.get("crawl", {})),
        exec_config=_exec_config(spec),
        checkpoint_dir=spec["checkpoint_dir"],
        resume=bool(spec.get("resume", False)),
    )
    save_crawl_dataset(dataset, spec["out"])
    return {"rows": len(dataset), "archive_chain": backend.store.archive_chain}


def _drive_scenario(spec: dict) -> dict:
    """Checkpointed scenario campaign, then crawl + detection scoring.

    Only the campaign is checkpointed (the kill lands there); a killed
    run never reaches the crawl, and the resumed run's crawl sees
    exactly the world state an uninterrupted run would have.
    """
    from repro.analysis.cleaning import clean_reports
    from repro.analysis.detection import score_detection
    from repro.crowd.campaign import CampaignConfig, run_campaign
    from repro.io import save_crowd_dataset
    from repro.scenarios import get_scenario
    from repro.scenarios.harness import run_scenario_crawl

    seed = int(spec.get("seed", 2013))
    scenario = get_scenario(spec["scenario"])
    world = scenario.build_world(seed)
    backend = _backend(world, spec)
    exec_config = _exec_config(spec)
    campaign = run_campaign(
        world,
        backend,
        CampaignConfig(
            n_checks=scenario.campaign_checks,
            population_size=scenario.campaign_population,
            start_day=0,
            end_day=scenario.campaign_end_day,
            seed=seed,
        ),
        exec_config=exec_config,
        checkpoint_dir=spec["checkpoint_dir"],
        resume=bool(spec.get("resume", False)),
    )
    save_crowd_dataset(campaign, spec["out"])
    crawl = run_scenario_crawl(
        world, backend, scenario, exec_config=exec_config, seed=seed
    )
    clean = clean_reports(
        crawl.reports, world.rates, require_repeatable=True
    )
    score = score_detection(
        crawl.reports, world.rates, scenario.truth,
        min_extent=scenario.min_extent, clean=clean,
    )
    return {
        "rows": len(campaign),
        "archive_chain": backend.store.archive_chain,
        "crawl_rows": len(crawl),
        "score": {
            "detected": {k: score.detected[k] for k in sorted(score.detected)},
            "magnitude": {
                k: score.magnitude[k] for k in sorted(score.magnitude)
            },
            "true_positives": score.true_positives,
            "false_positives": score.false_positives,
        },
    }


def _drive_serve(spec: dict) -> dict:
    """Drive the real HTTP service end to end over a local socket.

    First run (empty ``data_dir``): submit ``spec["job"]`` via
    ``POST /campaigns``.  A re-run over the same ``data_dir`` submits
    nothing -- ``build_app`` already resumed the incomplete job from its
    checkpoint, exactly what a restarted service does.  Either way the
    driver polls ``GET /jobs/job-000001`` until the job is terminal,
    downloads ``/results`` to ``spec["out"]``, and reports the final
    status.  A kill spec fires inside the job thread (the barrier hook
    is process-global), taking the whole service down mid-campaign.

    Extra spec fields: ``data_dir`` (the service's durable root; replaces
    ``checkpoint_dir``) and ``job`` (the ``POST /campaigns`` payload).
    """
    import threading
    import time as _time
    import urllib.request

    from repro.serve import ServeConfig, build_app

    service, server = build_app(ServeConfig(
        host="127.0.0.1", port=0,
        scale=spec.get("scale", "tiny"), seed=int(spec.get("seed", 2013)),
        data_dir=spec["data_dir"], exec_config=_exec_config(spec),
    ))
    threading.Thread(target=server.serve_forever, daemon=True).start()
    base = f"http://127.0.0.1:{server.port}"
    if not service.registry.jobs():
        body = json.dumps(spec.get("job", {})).encode("utf-8")
        with urllib.request.urlopen(
            urllib.request.Request(f"{base}/campaigns", data=body)
        ) as resp:
            assert resp.status == 202, resp.status
    while True:
        with urllib.request.urlopen(f"{base}/jobs/job-000001") as resp:
            status = json.loads(resp.read())
        if status["status"] in ("done", "failed"):
            break
        _time.sleep(0.05)
    assert status["status"] == "done", status
    with urllib.request.urlopen(f"{base}/jobs/job-000001/results") as resp:
        Path(spec["out"]).write_bytes(resp.read())
    server.shutdown()
    return {"rows": status["rows"], "checks": status["checks"]}


_DRIVERS = {
    "campaign": _drive_campaign,
    "crawl": _drive_crawl,
    "scenario": _drive_scenario,
    "serve": _drive_serve,
}


def _main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    kill = spec.get("kill")
    if kill:
        _install_kill(kill["point"], int(kill["count"]))
    if spec.get("worker_faults"):
        FaultPlan.from_specs(spec["worker_faults"]).install()
    result = _DRIVERS[spec["kind"]](spec)
    result["out_sha256"] = file_sha256(spec["out"])
    result["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2
    )
    blob = json.dumps(result, sort_keys=True).encode("utf-8")
    result_path = Path(spec["result"])
    tmp = result_path.with_name(result_path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1]))
