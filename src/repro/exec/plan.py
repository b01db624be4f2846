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

:class:`CostAwarePlanner` implements the ``partition_batch(backend,
scheduled)`` seam executors call: it predicts each retailer's cost for
*this* batch (live fan-outs are ~:data:`LIVE_CHECK_COST`; repeats of an
already-seen ``(url, day)`` burst on a memoizable retailer are
~:data:`MEMO_HIT_COST`) and bin-packs retailers onto shards so predicted
shard costs equalize.

:class:`ExecConfig` is the user-facing knob: ``workers`` and ``mode``
travel from the CLI / :func:`repro.crawler.run_crawl` /
:func:`repro.crowd.run_campaign` down to an executor instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.net.clock import SECONDS_PER_DAY
from repro.net.urls import URL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import ScheduledCheck, SheriffBackend
    from repro.ecommerce.world import World

__all__ = [
    "CostAwarePlanner",
    "ExecConfig",
    "ExecError",
    "LIVE_CHECK_COST",
    "MEMO_HIT_COST",
    "predicted_batch_cost",
]

_MODES = ("local", "process")

#: Relative cost of a full live fan-out (render + serialize + archive +
#: extract, times the fleet) vs replaying a memo hit.  Only the *ratio*
#: matters -- the planner equalizes relative shard loads, never absolute
#: seconds.
LIVE_CHECK_COST = 20.0
MEMO_HIT_COST = 1.0


class ExecError(RuntimeError):
    """Raised when a shard executor cannot honor its determinism contract."""


def _check_costs(
    backend: "SheriffBackend",
    scheduled: Sequence["ScheduledCheck"],
):
    """Yield ``(domain, predicted cost)`` per scheduled check.

    The one pricing rule shared by the cost planner and the supervisor's
    hang deadlines: a retailer the burst memo will serve pays
    :data:`LIVE_CHECK_COST` only for the first check of each
    ``(url, day)`` burst and :data:`MEMO_HIT_COST` for repeats; everyone
    else pays full price every time.
    """
    cache = backend.burst_cache
    seen: set[tuple[str, str, int]] = set()
    for sched in scheduled:
        host = URL.parse(sched.request.url).host
        if cache.predicts_hits(backend, host):
            burst = (host, sched.request.url,
                     int(sched.start_ts // SECONDS_PER_DAY))
            if burst in seen:
                yield host, MEMO_HIT_COST
                continue
            seen.add(burst)
        yield host, LIVE_CHECK_COST


def predicted_batch_cost(
    backend: "SheriffBackend",
    scheduled: Sequence["ScheduledCheck"],
) -> float:
    """Total predicted cost of a batch slice (one planned shard).

    :class:`~repro.exec.process.ProcessExecutor` scales its per-shard
    hang deadline by this number, so a shard full of live fan-outs gets
    proportionally more wall clock than one replaying memo hits before
    the supervisor declares its worker hung.
    """
    return sum(cost for _, cost in _check_costs(backend, scheduled))


class CostAwarePlanner:
    """Bin-pack retailers onto shards by predicted batch cost.

    Per batch, every retailer's checks are priced from two facts the
    coordinator already knows:

    * **class** -- a retailer the burst memo will serve (reachable
      retailer server, pure :meth:`~repro.ecommerce.retailer.
      RetailerServer.signature_profile`, not demoted, memo enabled) pays
      :data:`LIVE_CHECK_COST` only for the *first* check of each
      ``(url, day)`` burst; repeats replay at :data:`MEMO_HIT_COST`.
      Live-only retailers pay full price every time.
    * **volume** -- how many scheduled checks the batch actually sends
      each retailer.

    Retailers are then assigned largest-cost-first to the least-loaded
    shard (LPT bin packing), with deterministic tie-breaks (domain name,
    then lowest shard index), so coordinator runs agree across machines.
    Byte identity never depends on the assignment -- merge-in-plan-order
    guarantees it for any retailer-respecting partition -- so a bad cost
    prediction costs time, never correctness.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("a shard plan needs at least one worker")
        self.workers = workers

    # ------------------------------------------------------------------
    def predicted_costs(
        self,
        backend: "SheriffBackend",
        scheduled: Sequence["ScheduledCheck"],
    ) -> dict[str, float]:
        """domain -> predicted cost of this batch's checks against it."""
        costs: dict[str, float] = {}
        for host, cost in _check_costs(backend, scheduled):
            costs[host] = costs.get(host, 0.0) + cost
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
        self,
        backend: "SheriffBackend",
        scheduled: Sequence["ScheduledCheck"],
    ) -> list[list["ScheduledCheck"]]:
        """Split schedule entries into cost-balanced per-shard slices.

        Entries keep their submission order inside each shard, which
        preserves the per-domain request sequence (and with it cookie and
        nonce evolution) exactly as the sequential loop would produce it.
        """
        assignment = self.assign(self.predicted_costs(backend, scheduled))
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

    ``workers=1`` with ``mode="local"`` is the sequential baseline (no
    executor object at all); higher worker counts shard the batch through
    :class:`CostAwarePlanner`.  Modes:

    * ``"local"`` -- :class:`~repro.exec.local.LocalExecutor`: shards run
      one after another in this process.  Zero overhead, exercises the
      exact partition/merge path; the default and the test baseline.
    * ``"process"`` -- :class:`~repro.exec.process.ProcessExecutor`:
      shards run in parallel worker processes that rebuild the world from
      its :class:`~repro.ecommerce.world.WorldSpec`.
    """

    workers: int = 1
    mode: str = "local"
    #: How many times the supervisor may respawn the worker of any one
    #: shard before quarantining the shard to inline execution (process
    #: mode only; see :meth:`ProcessExecutor.supervision_stats`).
    max_worker_restarts: int = 3

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")

    def create(self, world: "World"):
        """Build the executor this config describes (None = run inline)."""
        if self.mode == "local":
            if self.workers == 1:
                return None
            from repro.exec.local import LocalExecutor

            return LocalExecutor(self.workers)
        from repro.exec.process import ProcessExecutor

        return ProcessExecutor(
            world, self.workers, max_restarts=self.max_worker_restarts
        )
