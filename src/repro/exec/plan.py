"""Shard planning: deterministic ownership of a batch's checks.

The unit of shard ownership is the **retailer**.  Everything that makes
two checks against one shop interact -- the vantage fleet's session
cookies for that domain, the server's request counter (part of the
pricing nonce), its render memo -- is keyed by domain, while checks
against different shops share nothing (per-request latency/loss draws,
burst-clock isolation; see ``docs/ARCHITECTURE.md``).  A planner
therefore assigns every (retailer, product) target to the shard that
owns its retailer; because archives and reports are merged back in plan
order, **any** retailer-respecting partition produces byte-identical
output, which frees the planner to chase wall clock instead of safety.

:class:`CostAwarePlanner` implements the ``partition_batch(scheduled)``
seam executors call: a retailer's cost for *this* batch is the number of
checks the batch sends it, and retailers are bin-packed onto shards so
shard costs equalize.

:class:`ExecConfig` is the user-facing setting: ``workers`` travels
from the CLI to the caller that owns a unit of work, which turns it
into an executor instance (:meth:`ExecConfig.create`) and hands that to
:func:`repro.crowd.run_campaign` and :func:`repro.crawler.run_crawl`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.net.urls import URL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import ScheduledCheck
    from repro.ecommerce.world import World

__all__ = [
    "CostAwarePlanner",
    "ExecConfig",
    "ExecError",
]


class ExecError(RuntimeError):
    """Raised when a run's execution setup cannot honor its determinism
    contract: a foreign vantage fleet, a burst memo where memo state
    cannot live (a worker process, a checkpointed run), or a closed
    executor."""


class CostAwarePlanner:
    """Bin-pack retailers onto shards by their checks in the batch.

    A retailer's cost is how many scheduled checks the batch sends it:
    every check is one live fan-out.  Retailers are assigned
    largest-cost-first to the least-loaded shard (LPT bin packing), with
    deterministic tie-breaks (domain name, then lowest shard index), so
    coordinator runs agree across machines.  Byte identity never depends
    on the assignment -- merge-in-plan-order guarantees it for any
    retailer-respecting partition -- so a bad cost prediction costs
    time, never correctness.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("a shard plan needs at least one worker")
        self.workers = workers

    # ------------------------------------------------------------------
    def predicted_costs(
        self, scheduled: Sequence["ScheduledCheck"]
    ) -> dict[str, int]:
        """domain -> how many of this batch's checks go to it."""
        costs: dict[str, int] = {}
        for sched in scheduled:
            host = URL.parse(sched.request.url).host
            costs[host] = costs.get(host, 0) + 1
        return costs

    def assign(self, costs: dict[str, float]) -> dict[str, int]:
        """domain -> shard, equalizing predicted per-shard cost (LPT)."""
        loads = [0.0] * self.workers
        assignment: dict[str, int] = {}
        for domain in sorted(costs, key=lambda d: (-costs[d], d)):
            shard = min(range(self.workers), key=lambda i: (loads[i], i))
            assignment[domain] = shard
            loads[shard] += costs[domain]
        return assignment

    def partition_batch(
        self, scheduled: Sequence["ScheduledCheck"]
    ) -> list[list["ScheduledCheck"]]:
        """Split schedule entries into cost-balanced per-shard slices.

        Entries keep their submission order inside each shard, which
        preserves the per-domain request sequence (and with it cookie and
        nonce evolution) exactly as the sequential loop would produce it.
        """
        assignment = self.assign(self.predicted_costs(scheduled))
        shards: list[list["ScheduledCheck"]] = [[] for _ in range(self.workers)]
        for sched in scheduled:
            host = URL.parse(sched.request.url).host
            shards[assignment[host]].append(sched)
        return shards

    def __repr__(self) -> str:
        return f"CostAwarePlanner(workers={self.workers})"


@dataclass(frozen=True)
class ExecConfig:
    """How a crawl/campaign executes its fan-out batches.

    ``workers`` is the only setting.  ``workers=1`` runs every batch
    inline (no executor object at all); ``workers=N > 1`` shards each
    batch through :class:`CostAwarePlanner` onto N worker processes
    (:class:`~repro.exec.process.ProcessExecutor`, with its default
    restart budget) that rebuild the world from its
    :class:`~repro.ecommerce.world.WorldSpec`.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def create(self, world: "World"):
        """Build the executor this config describes (None = run inline).

        The caller owns the result: it hands it to the runs of one unit
        of work and closes it when the unit ends.
        """
        if self.workers == 1:
            return None
        from repro.exec.process import ProcessExecutor

        return ProcessExecutor(world, self.workers)
