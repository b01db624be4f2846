"""The synchronized daily crawl.

For each day in the window, every target product URL is fanned out to the
full vantage fleet through the $heriff backend -- the same synchronized
machinery the crowd checks use, so the crawled dataset inherits the
methodology's noise defenses (same-instant fan-out, per-day repetition).

Scale note: the paper's configuration (21 retailers x ≤100 products x
7 days x 14 vantage points) yields ~200K fetches and ~188K extracted
prices.  :class:`CrawlConfig` exposes the knobs so tests and benchmarks can
run reduced-scale crawls with identical structure, and
:class:`~repro.exec.ExecConfig` shards each day's batch across workers --
the dataset stays byte-identical at any worker count (the executor
determinism contract, ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.checkpoint import (
    MID_DAY,
    RunCheckpoint,
    barrier,
    capture_run_state,
    run_fingerprint,
)
from repro.core.backend import CheckRequest, SheriffBackend
from repro.crawler.plan import CrawlPlan
from repro.crawler.records import CrawlDataset
from repro.ecommerce.world import World
from repro.net.clock import SECONDS_PER_DAY
from repro.util import stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend import SupportsRun
    from repro.exec import ExecConfig

__all__ = ["CrawlConfig", "plan_digest", "run_crawl"]


@dataclass(frozen=True)
class CrawlConfig:
    """Crawl window and pacing."""

    days: int = 7
    #: First crawl day (days since 2013-01-01); the paper crawled after the
    #: Jan-May crowd phase, so the default starts in June.
    start_day: int = 155
    #: Seconds between consecutive product checks (crawler politeness).
    pacing_seconds: float = 2.0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError("days must be positive")
        if self.start_day < 0:
            raise ValueError("start_day must be >= 0")
        if self.pacing_seconds < 0:
            raise ValueError("pacing_seconds must be >= 0")


def plan_digest(plan: CrawlPlan) -> str:
    """A stable identity for a crawl plan (part of the run fingerprint).

    Two plans digest equal exactly when they visit the same product URLs
    with the same anchors in the same order -- the inputs that determine
    the crawl's bytes.
    """
    parts: list[object] = []
    for target in plan.targets:
        parts.append(target.domain)
        parts.extend(target.product_urls)
        parts.append(target.anchor.selector)
        parts.append(target.anchor.node_path)
    return f"{stable_hash(*parts):016x}"


def run_crawl(
    world: World,
    backend: SheriffBackend,
    plan: CrawlPlan,
    config: Optional[CrawlConfig] = None,
    *,
    exec_config: Optional["ExecConfig"] = None,
    executor: Optional["SupportsRun"] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> CrawlDataset:
    """Execute the crawl plan and return the crawled dataset.

    The world clock is advanced to each crawl day; within a day, targets
    are visited in plan order with ``pacing_seconds`` between checks, all
    checks of one product remaining a synchronized burst.

    ``exec_config`` shards each day's batch across workers (the executor
    is created here and closed when the crawl ends); ``executor`` passes a
    caller-owned executor instead (the caller closes it -- benchmarks use
    this to keep one process pool warm across many crawls).  Either way
    the dataset is byte-identical to the sequential run -- as it is with
    the backend's burst memo on or off (:mod:`repro.core.burstcache`):
    repeated checks of a signature-pure retailer's product on one day
    serve from the memo, byte-for-byte including archive timestamps.

    ``checkpoint_dir`` makes the crawl kill-safe: each completed day is
    also durably committed (dataset shard + run state) before the next
    starts, and ``resume=True`` against a freshly built world and the
    same plan skips committed days -- see :mod:`repro.checkpoint`.  The
    schedule is the same with or without a checkpoint, so checkpointed
    and non-checkpointed crawls are byte-identical to each other.
    """
    config = config or CrawlConfig()
    if not plan.targets:
        raise ValueError("empty crawl plan")
    if exec_config is not None and executor is not None:
        raise ValueError("pass exec_config or executor, not both")

    days = list(range(config.start_day, config.start_day + config.days))
    dataset = CrawlDataset()
    checkpoint = None
    done = 0
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint.open(
            checkpoint_dir,
            kind="crawl",
            fingerprint=run_fingerprint(
                "crawl", world.config, config, plan=plan_digest(plan)
            ),
            resume=resume,
        )
        done = checkpoint.resume_into(dataset, world, backend, days=days)

    owned = exec_config.create(world) if exec_config is not None else None
    active = executor if executor is not None else owned
    try:
        for day in days[done:]:
            day_start = day * SECONDS_PER_DAY
            if day_start > world.clock.now:
                world.clock.advance_to(day_start)
            # One batched submission per day: the backend amortizes URL
            # parsing and the FX guard across the day's burst while keeping
            # each check's fan-out (and the virtual timeline) identical to
            # a sequential loop.
            requests = [
                CheckRequest(url=url, anchor=target.anchor, origin="crawler")
                for target in plan.targets
                for url in target.product_urls
            ]
            # Stream the day's merged reports straight into the day's
            # columnar segment (plan order) -- no intermediate report list.
            staging = CrawlDataset()

            def sink(report) -> None:
                barrier(MID_DAY)
                staging.add(report)

            backend.check_batch(
                requests,
                pacing_seconds=config.pacing_seconds,
                executor=active,
                sink=sink,
            )
            if checkpoint is not None:
                checkpoint.commit_segment(
                    day=day,
                    dataset=staging,
                    state=capture_run_state(world, backend),
                )
            dataset.append_segment(staging)
    finally:
        if owned is not None:
            owned.close()
    return dataset
