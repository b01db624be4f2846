"""Sharded execution of synchronized-check batches.

The paper's workload is a day-batched fan-out: ~200K fetches across
21 retailers x 7 days x 14 vantage points.  This package executes one
day's batch across N workers while keeping every report byte-identical
to the sequential loop:

* :class:`~repro.exec.plan.CostAwarePlanner` -- the shard planner:
  partitions the batch by retailer, bin-packing retailers onto shards so
  per-shard check counts equalize;
* :class:`~repro.exec.plan.ExecConfig` -- the ``workers`` setting
  (the CLI's ``--workers``): 1 runs inline, N > 1 runs N worker
  processes; :meth:`~repro.exec.plan.ExecConfig.create` is the one
  place that turns it into a pool;
* :class:`~repro.exec.process.ProcessExecutor` -- multiprocessing
  execution; workers regrow the world from its picklable
  :class:`~repro.ecommerce.world.WorldSpec` instead of pickling live
  simulation objects, and run without a burst memo (a backend that
  holds one is refused).  A supervision layer recovers dead or hung
  workers (respawn + full re-ship + deterministic re-run) and
  quarantines a shard to inline execution once its restart budget is
  spent; :meth:`~repro.exec.process.ProcessExecutor.supervision_stats`
  reports that pool's recovery telemetry.

One pool serves one unit of work, and the caller that starts the unit
owns it: :func:`repro.crowd.run_campaign`, :func:`repro.crawler.run_crawl`
and :func:`repro.scenarios.harness.run_scenario_crawl` take a
caller-owned ``executor=`` (``None`` runs inline) and never close it.
The owners are :class:`~repro.experiments.context.ExperimentContext`
(the CLI's ``campaign``, ``crawl`` and ``report``), each scenario cell
and each served job.

See ``docs/ARCHITECTURE.md`` for the determinism contract that makes the
byte-identity guarantee hold.
"""

from repro.exec.plan import CostAwarePlanner, ExecConfig, ExecError
from repro.exec.process import QUIET_FLEET, ProcessExecutor, install_fault_hook

__all__ = [
    "CostAwarePlanner",
    "ExecConfig",
    "ExecError",
    "ProcessExecutor",
    "QUIET_FLEET",
    "install_fault_hook",
]
