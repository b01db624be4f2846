"""In-process shard execution: the default and the test baseline.

:class:`LocalExecutor` runs every shard in the coordinating process, one
shard after another -- deliberately *not* in submission order, so the
byte-identity tests exercise the same out-of-order execution a process
pool produces, without any process machinery in the way.  Archives are
buffered per check and replayed into the backend's store in plan order,
leaving the store exactly as the sequential loop would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.exec.plan import CostAwarePlanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import ScheduledCheck, SheriffBackend
    from repro.core.reports import PriceCheckReport
    from repro.net.vantage import VantagePoint

__all__ = ["LocalExecutor", "merge_in_plan_order"]


def merge_in_plan_order(
    backend: "SheriffBackend",
    scheduled: Sequence["ScheduledCheck"],
    merged: dict[int, tuple["PriceCheckReport", list[dict]]],
    sink: Optional[Callable[["PriceCheckReport"], None]] = None,
) -> list["PriceCheckReport"]:
    """Reassemble per-shard results into submission order.

    ``merged`` maps schedule index to (report, buffered archive calls).
    Archives replay into ``backend.store`` in plan order, so retention
    caps and content interning fire in the same sequence -- and therefore
    retain the same pages -- as the inline loop.

    With a ``sink``, each report is handed over in plan order instead of
    being accumulated (the crawl streams reports straight into the
    columnar dataset spine this way) and the returned list is empty.
    """
    reports: list["PriceCheckReport"] = []
    for sched in scheduled:
        report, archives = merged[sched.index]
        for kwargs in archives:
            backend.store.archive(**kwargs)
        if sink is not None:
            sink(report)
        else:
            reports.append(report)
    return reports


class LocalExecutor:
    """Run shards sequentially in-process, merging deterministically."""

    def __init__(self, workers: int = 1) -> None:
        self.plan = CostAwarePlanner(workers)

    def run(
        self,
        backend: "SheriffBackend",
        scheduled: Sequence["ScheduledCheck"],
        fleet: Sequence["VantagePoint"],
        sink: Optional[Callable[["PriceCheckReport"], None]] = None,
    ) -> list["PriceCheckReport"]:
        """Execute every schedule entry, shard by shard, and merge."""
        merged: dict[int, tuple["PriceCheckReport", list[dict]]] = {}
        for shard in self.plan.partition_batch(backend, scheduled):
            for sched in shard:
                archives: list[dict] = []
                report = backend.run_scheduled_check(
                    sched, fleet, lambda **kwargs: archives.append(kwargs)
                )
                merged[sched.index] = (report, archives)
        return merge_in_plan_order(backend, scheduled, merged, sink)

    def close(self) -> None:
        """Nothing to release (symmetry with :class:`ProcessExecutor`)."""

    def __repr__(self) -> str:
        return f"LocalExecutor(workers={self.plan.workers})"
