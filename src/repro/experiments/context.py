"""Shared experiment context: build once, analyze many times.

Every figure consumes the same two datasets the paper built -- the
crowdsourced beta collection and the systematic crawl -- so the context
constructs them lazily and caches them.  All stochastic stages flow from
one seed; a context at a given (scale, seed) is bit-for-bit reproducible.
A context with worker processes owns one pool for both datasets; close
the context (or use it in a ``with`` block) to release it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.analysis.cleaning import CleanResult, clean_reports
from repro.core.backend import SheriffBackend
from repro.crawler import CrawlConfig, CrawlPlan, build_plan, run_crawl
from repro.crawler.records import CrawlDataset
from repro.crowd import CampaignConfig, CrowdDataset, run_campaign
from repro.ecommerce.world import World, WorldConfig, build_world
from repro.exec import QUIET_FLEET

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ExecConfig, ProcessExecutor

__all__ = ["ExperimentScale", "ExperimentContext", "get_context", "SCALES"]


@dataclass(frozen=True)
class ExperimentScale:
    """All scale knobs in one place."""

    name: str
    catalog_scale: float
    long_tail_domains: int
    crowd_checks: int
    crowd_population: int
    crawl_products: int
    crawl_days: int

    def world_config(self, seed: int) -> WorldConfig:
        """The world-construction knobs at this scale."""
        return WorldConfig(
            seed=seed,
            catalog_scale=self.catalog_scale,
            long_tail_domains=self.long_tail_domains,
        )

    def campaign_config(self, seed: int) -> CampaignConfig:
        """The crowd-campaign knobs at this scale."""
        return CampaignConfig(
            n_checks=self.crowd_checks,
            population_size=self.crowd_population,
            seed=seed,
        )

    def crawl_config(self) -> CrawlConfig:
        """The crawl-window knobs at this scale."""
        return CrawlConfig(days=self.crawl_days)


SCALES: dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        name="tiny", catalog_scale=0.15, long_tail_domains=25,
        crowd_checks=120, crowd_population=60,
        crawl_products=8, crawl_days=2,
    ),
    "quick": ExperimentScale(
        name="quick", catalog_scale=0.35, long_tail_domains=120,
        crowd_checks=420, crowd_population=200,
        crawl_products=22, crawl_days=3,
    ),
    "paper": ExperimentScale(
        name="paper", catalog_scale=1.0, long_tail_domains=800,
        crowd_checks=1500, crowd_population=340,
        crawl_products=100, crawl_days=7,
    ),
}


class ExperimentContext:
    """Lazily-built shared state for all figure experiments.

    ``exec_config`` shards the campaign and crawl fan-outs across workers
    (``repro.exec``); datasets are byte-identical at any worker count, so
    the figures cannot depend on it.  The context builds one pool from
    its world on first use (:attr:`executor`) and runs the campaign and
    then the crawl on it; :meth:`close` releases it, and the context is
    a context manager.  A closed pool refuses work, so build a new
    context to run again.

    ``checkpoint_dir`` makes the dataset builds kill-safe: the campaign
    checkpoints into ``<dir>/campaign`` and the crawl into ``<dir>/crawl``
    (:mod:`repro.checkpoint`); ``resume=True`` continues interrupted
    builds from their last committed day.
    """

    def __init__(
        self,
        scale: ExperimentScale | str = "quick",
        *,
        seed: int = 2013,
        exec_config: Optional["ExecConfig"] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> None:
        if isinstance(scale, str):
            try:
                scale = SCALES[scale]
            except KeyError:
                raise KeyError(
                    f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
                ) from None
        self.scale = scale
        self.seed = seed
        self.exec_config = exec_config
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self._world: Optional[World] = None
        self._executor: Optional["ProcessExecutor"] = None
        self._backend: Optional[SheriffBackend] = None
        self._crowd: Optional[CrowdDataset] = None
        self._plan: Optional[CrawlPlan] = None
        self._crawl: Optional[CrawlDataset] = None
        self._crawl_clean: Optional[CleanResult] = None
        self._crowd_clean: Optional[CleanResult] = None

    # ------------------------------------------------------------------
    @property
    def world(self) -> World:
        if self._world is None:
            self._world = build_world(self.scale.world_config(self.seed))
        return self._world

    @property
    def backend(self) -> SheriffBackend:
        if self._backend is None:
            world = self.world
            self._backend = SheriffBackend(
                world.network, world.vantage_points, world.rates
            )
        return self._backend

    @property
    def executor(self) -> Optional["ProcessExecutor"]:
        """The context's worker pool, built on first use (None: inline)."""
        if self._executor is None and self.exec_config is not None:
            self._executor = self.exec_config.create(self.world)
        return self._executor

    def supervision_stats(self) -> dict:
        """The pool's supervision counters
        (:meth:`~repro.exec.ProcessExecutor.supervision_stats`); an inline
        context reports :data:`~repro.exec.QUIET_FLEET`."""
        if self._executor is None:
            return dict(QUIET_FLEET)
        return self._executor.supervision_stats()

    def close(self) -> None:
        """Shut the pool's workers down (idempotent)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def crowd(self) -> CrowdDataset:
        """The crowdsourced dataset (runs the campaign on first use)."""
        if self._crowd is None:
            self._crowd = run_campaign(
                self.world,
                self.backend,
                self.scale.campaign_config(self.seed),
                executor=self.executor,
                checkpoint_dir=(
                    self.checkpoint_dir / "campaign"
                    if self.checkpoint_dir is not None
                    else None
                ),
                resume=self.resume,
            )
        return self._crowd

    @property
    def plan(self) -> CrawlPlan:
        if self._plan is None:
            self._plan = build_plan(
                self.world,
                domains=self.world.crawled_domains,
                products_per_retailer=self.scale.crawl_products,
                seed=self.seed,
            )
        return self._plan

    @property
    def crawl(self) -> CrawlDataset:
        """The crawled dataset (runs the crawl on first use)."""
        if self._crawl is None:
            # The crawl follows the crowd phase chronologically.
            _ = self.crowd
            self._crawl = run_crawl(
                self.world,
                self.backend,
                self.plan,
                self.scale.crawl_config(),
                executor=self.executor,
                checkpoint_dir=(
                    self.checkpoint_dir / "crawl"
                    if self.checkpoint_dir is not None
                    else None
                ),
                resume=self.resume,
            )
        return self._crawl

    # ------------------------------------------------------------------
    # Cleaned views (dataset-wide currency guard applied)
    # ------------------------------------------------------------------
    @property
    def crawl_clean(self) -> CleanResult:
        if self._crawl_clean is None:
            self._crawl_clean = clean_reports(self.crawl.reports, self.world.rates)
        return self._crawl_clean

    @property
    def crowd_clean(self) -> CleanResult:
        if self._crowd_clean is None:
            self._crowd_clean = clean_reports(
                self.crowd.reports(), self.world.rates
            )
        return self._crowd_clean


_CACHE: dict[tuple[str, int], ExperimentContext] = {}


def get_context(scale: Optional[str] = None, *, seed: int = 2013) -> ExperimentContext:
    """The process-wide shared context (``REPRO_SCALE`` selects the scale)."""
    name = scale or os.environ.get("REPRO_SCALE", "quick")
    key = (name, seed)
    if key not in _CACHE:
        _CACHE[key] = ExperimentContext(name, seed=seed)
    return _CACHE[key]
