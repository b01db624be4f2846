"""Sharded execution of synchronized-check batches.

The paper's workload is a day-batched fan-out: ~200K fetches across
21 retailers x 7 days x 14 vantage points.  This package executes one
day's batch across N workers while keeping every report byte-identical
to the sequential loop:

* :class:`~repro.exec.plan.CostAwarePlanner` -- the shard planner:
  partitions the batch by retailer, bin-packing retailers onto shards so
  predicted per-shard cost (live fan-outs vs memo hits) equalizes;
* :class:`~repro.exec.plan.ExecConfig` -- the ``workers``/``mode`` knob
  carried by :func:`repro.crawler.run_crawl`,
  :func:`repro.crowd.run_campaign`, and the CLI's ``--workers`` /
  ``--exec-mode``;
* :class:`~repro.exec.local.LocalExecutor` -- in-process execution, the
  default and the determinism test baseline;
* :class:`~repro.exec.process.ProcessExecutor` -- multiprocessing
  execution; workers regrow the world from its picklable
  :class:`~repro.ecommerce.world.WorldSpec` instead of pickling live
  simulation objects.  A supervision layer recovers dead or hung
  workers (respawn + full re-ship + deterministic re-run) and
  quarantines poison shards to inline execution after
  ``--max-worker-restarts`` failures; :func:`~repro.exec.process.
  fleet_health` accumulates the recovery telemetry across executors.

See ``docs/ARCHITECTURE.md`` for the determinism contract that makes the
byte-identity guarantee hold.
"""

from repro.exec.local import LocalExecutor
from repro.exec.plan import CostAwarePlanner, ExecConfig, ExecError
from repro.exec.process import (
    FleetHealthScope,
    ProcessExecutor,
    fleet_health,
    install_fault_hook,
    reset_fleet_health,
)

__all__ = [
    "CostAwarePlanner",
    "ExecConfig",
    "ExecError",
    "FleetHealthScope",
    "LocalExecutor",
    "ProcessExecutor",
    "fleet_health",
    "install_fault_hook",
    "reset_fleet_health",
]
