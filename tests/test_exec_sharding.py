"""Sharded execution: partition stability and byte-identical merges.

The executor contract (``docs/ARCHITECTURE.md``): a crawl or campaign
executed across N worker processes serializes to exactly the bytes of
the inline run, for any N.  These tests assert the contract end to end
-- dataset serialization compared as strings -- plus the pieces it rests
on: retailer-owned, order-preserving cost-aware partitions, and
store-state equivalence.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import CheckRequest, ScheduledCheck, SheriffBackend
from repro.core.burstcache import BurstCache

# The byte-identity suites below re-run whole crawls/campaigns per
# worker count: full tier only (docs/TESTING.md).  The planner /
# ExecConfig unit tests stay in the fast tier.
slow = pytest.mark.slow
from repro.crawler import CrawlConfig, build_plan, run_crawl
from repro.crowd import CampaignConfig, run_campaign
from repro.ecommerce.world import WorldConfig, WorldSpec, build_world
from repro.exec import (
    CostAwarePlanner,
    ExecConfig,
    ExecError,
    ProcessExecutor,
)
from repro.experiments.context import ExperimentContext, ExperimentScale
from repro.io import report_to_dict
from repro.scenarios.harness import _store_blob


def _tiny_world():
    return build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))


def _anchor(world, domain):
    from repro.analysis.personal import derive_anchor_for_domain

    return derive_anchor_for_domain(world, domain)


def _run_on_pool(exec_config, world, run):
    """``run(executor)`` on the pool ``exec_config`` builds (None:
    inline), closed afterwards as every pool owner does."""
    executor = exec_config.create(world) if exec_config is not None else None
    try:
        return run(executor)
    finally:
        if executor is not None:
            executor.close()


def _crawl_blob(exec_config, *, loss_rate=0.0, memo=False) -> tuple[str, str]:
    """Serialize a small same-seed crawl and its page archive."""
    world = build_world(
        WorldConfig(catalog_scale=0.15, long_tail_domains=0, loss_rate=loss_rate)
    )
    backend = SheriffBackend(
        world.network, world.vantage_points, world.rates,
        burst_cache=BurstCache() if memo else None,
    )
    plan = build_plan(
        world, domains=world.crawled_domains[:5], products_per_retailer=4
    )
    dataset = _run_on_pool(exec_config, world, lambda executor: run_crawl(
        world, backend, plan, CrawlConfig(days=2), executor=executor
    ))
    blob = json.dumps(
        [report_to_dict(r) for r in dataset.reports], sort_keys=True
    )
    return blob, _store_blob(backend.store)


def _campaign_blob(exec_config, *, loss_rate=0.0) -> str:
    world = build_world(WorldConfig(
        catalog_scale=0.15, long_tail_domains=10, loss_rate=loss_rate
    ))
    backend = SheriffBackend(world.network, world.vantage_points, world.rates)
    dataset = _run_on_pool(exec_config, world, lambda executor: run_campaign(
        world,
        backend,
        CampaignConfig(n_checks=40, population_size=20, seed=11),
        executor=executor,
    ))
    return _records_blob(dataset)


def _records_blob(dataset) -> str:
    rows = []
    for record in dataset:
        rows.append({
            "user": record.user_id,
            "day": record.day_index,
            "domain": record.domain,
            "url": record.url,
            "failure": record.outcome.failure,
            "user_amount": record.outcome.user_amount,
            "report": report_to_dict(record.report) if record.report else None,
        })
    return json.dumps(rows, sort_keys=True)


#: A small context: a crowd phase of 40 clicks, then 2 days over 3
#: products of each of the 21 crawled retailers.
_SMALL = ExperimentScale(
    name="small", catalog_scale=0.15, long_tail_domains=10,
    crowd_checks=40, crowd_population=20, crawl_products=3, crawl_days=2,
)


def _context_blobs(workers: int, *, kill_in_crawl: bool = False):
    """One context's crowd and crawl bytes and archive chain, plus its
    pool's counters.  ``kill_in_crawl`` SIGKILLs worker 0 mid-batch in
    the crawl's first batch, whose index counts on from the campaign's
    batches."""
    from repro.exec import install_fault_hook
    from tests.crashkit import FaultPlan

    with ExperimentContext(
        _SMALL, seed=11, exec_config=ExecConfig(workers=workers)
    ) as ctx:
        crowd = _records_blob(ctx.crowd)
        if kill_in_crawl:
            first = ctx.executor.boundary_stats()["batches"]
            FaultPlan([(0, first, "mid-batch")]).install()
        try:
            crawl = ctx.crawl
        finally:
            install_fault_hook(None)
    crawl_blob = json.dumps(
        [report_to_dict(r) for r in crawl.reports], sort_keys=True
    )
    return (
        (crowd, crawl_blob, ctx.backend.store.archive_chain),
        ctx.supervision_stats(),
    )


# ----------------------------------------------------------------------
# CostAwarePlanner
# ----------------------------------------------------------------------
class TestCostAwarePlanner:
    def _scheduled(self, world, domains, repeats=1):
        anchor = _anchor(world, "www.digitalrev.com")
        scheduled = []
        index = 0
        for _ in range(repeats):
            for domain in domains:
                product = world.retailer(domain).catalog.products[0]
                scheduled.append(ScheduledCheck(
                    index=index,
                    check_id=f"chk{index:07d}",
                    start_ts=float(index),
                    request=CheckRequest(
                        url=f"http://{domain}{product.path}", anchor=anchor
                    ),
                ))
                index += 1
        return scheduled

    def test_partition_covers_all_and_preserves_order(self):
        world = _tiny_world()
        scheduled = self._scheduled(world, world.crawled_domains[:6], repeats=3)
        shards = CostAwarePlanner(4).partition_batch(scheduled)
        assert len(shards) == 4
        flat = [sched.index for shard in shards for sched in shard]
        assert sorted(flat) == list(range(len(scheduled)))
        for shard in shards:  # submission order survives inside a shard
            assert [s.index for s in shard] == sorted(s.index for s in shard)
        # Every domain's checks live on exactly one shard.
        owners: dict[str, set] = {}
        for i, shard in enumerate(shards):
            for sched in shard:
                owners.setdefault(sched.request.url.split("/")[2], set()).add(i)
        assert all(len(shards_of) == 1 for shards_of in owners.values())

    def test_cost_is_checks_per_domain(self):
        """Every check is one live fan-out: a retailer's cost is how many
        checks the batch sends it, repeats of one burst included."""
        world = _tiny_world()
        repeated, once = "www.digitalrev.com", "www.amazon.com"
        scheduled = self._scheduled(world, [repeated], repeats=3)
        scheduled += self._scheduled(world, [once])
        costs = CostAwarePlanner(2).predicted_costs(scheduled)
        assert costs == {repeated: 3, once: 1}

    def test_assign_equalizes_loads_deterministically(self):
        planner = CostAwarePlanner(2)
        costs = {"a.example": 40.0, "b.example": 20.0, "c.example": 20.0}
        assignment = planner.assign(costs)
        # LPT: the big retailer gets its own shard, the two small ones
        # share the other.
        assert assignment["b.example"] == assignment["c.example"]
        assert assignment["a.example"] != assignment["b.example"]
        # Deterministic under dict-order permutations.
        permuted = planner.assign({
            "c.example": 20.0, "a.example": 40.0, "b.example": 20.0
        })
        assert permuted == assignment

    def test_cost_ties_break_by_domain_name(self):
        assignment = CostAwarePlanner(2).assign(
            {"b.example": 10.0, "a.example": 10.0}
        )
        # Equal costs: 'a' is considered first and lands on shard 0.
        assert assignment["a.example"] == 0
        assert assignment["b.example"] == 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            CostAwarePlanner(0)


# ----------------------------------------------------------------------
# ExecConfig
# ----------------------------------------------------------------------
class TestExecConfig:
    def test_defaults_are_sequential(self):
        config = ExecConfig()
        assert config.workers == 1
        assert config.create(_tiny_world()) is None

    def test_workers_above_one_create_a_process_executor(self):
        """``workers`` is the only setting: N > 1 is N worker processes
        under the default restart budget."""
        executor = ExecConfig(workers=2).create(_tiny_world())
        try:
            assert isinstance(executor, ProcessExecutor)
            assert executor.plan.workers == 2
            assert executor.max_restarts == 3
        finally:
            executor.close()

    def test_validation(self):
        # No automatic choice: the caller names a worker count >= 1.
        for bad in (-1, 0):
            with pytest.raises(ValueError):
                ExecConfig(workers=bad)


# ----------------------------------------------------------------------
# Byte identity: crawl
# ----------------------------------------------------------------------
@slow
class TestCrawlByteIdentity:
    def test_process_workers_identical(self):
        """The acceptance criterion: same-seed crawls at 2 and 4 worker
        processes serialize to the inline run's bytes (and identical
        archived stores)."""
        base_blob, base_store = _crawl_blob(None)
        for workers in (2, 4):
            blob, store = _crawl_blob(ExecConfig(workers=workers))
            assert blob == base_blob, f"workers={workers} diverged"
            assert store == base_store, f"workers={workers} store diverged"

    def test_identity_survives_packet_loss(self):
        """Loss draws are per-request, so retries/failures land on the
        same fetches at every worker count."""
        base_blob, base_store = _crawl_blob(None, loss_rate=0.10)
        for workers in (2, 4):
            blob, store = _crawl_blob(
                ExecConfig(workers=workers), loss_rate=0.10
            )
            assert blob == base_blob, f"workers={workers} diverged"
            assert store == base_store, f"workers={workers} store diverged"

    def test_planner_memo_executor_grid_identical(self):
        """Memo x workers: the memo-free inline run and the memo-free
        2-worker run, partitioned by the cost planner, serialize to the
        bytes of the inline run with the memo."""
        base_blob, base_store = _crawl_blob(None, memo=True)
        for workers in (1, 2):
            blob, store = _crawl_blob(ExecConfig(workers=workers))
            assert blob == base_blob, f"workers={workers} diverged"
            assert store == base_store, f"workers={workers} store diverged"


# ----------------------------------------------------------------------
# Byte identity: campaign
# ----------------------------------------------------------------------
@slow
class TestCampaignByteIdentity:
    def test_process_workers_identical(self):
        base = _campaign_blob(None)
        for workers in (2, 4):
            assert _campaign_blob(ExecConfig(workers=workers)) == base

    def test_identity_survives_packet_loss(self):
        base = _campaign_blob(None, loss_rate=0.10)
        for workers in (2, 4):
            blob = _campaign_blob(ExecConfig(workers=workers), loss_rate=0.10)
            assert blob == base, f"workers={workers} diverged"


@slow
class TestContextSharesOnePool:
    """A context runs its campaign and then its crawl on one pool: the
    workers' session ledgers and the page epoch carry over from the
    campaign's last batch to the crawl's first."""

    def test_campaign_and_crawl_on_one_pool_match_inline(self):
        reference, quiet = _context_blobs(1)
        assert quiet["restarts"] == 0
        for workers in (2, 4):
            blobs, health = _context_blobs(workers)
            assert blobs == reference, f"workers={workers} diverged"
            assert health["restarts"] == 0

    def test_worker_killed_in_the_crawls_first_batch(self):
        reference, _ = _context_blobs(1)
        blobs, health = _context_blobs(2, kill_in_crawl=True)
        assert blobs == reference
        assert health["restarts"] == 1


# ----------------------------------------------------------------------
# Executor seams
# ----------------------------------------------------------------------
@slow
class TestExecutorSeams:
    def test_caller_owned_executor_reused_across_days(self):
        base_blob, _ = _crawl_blob(None)
        world = build_world(WorldConfig(catalog_scale=0.15, long_tail_domains=0))
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        plan = build_plan(
            world, domains=world.crawled_domains[:5], products_per_retailer=4
        )
        with ProcessExecutor(world, 2) as executor:
            dataset = run_crawl(
                world, backend, plan, CrawlConfig(days=2), executor=executor
            )
            assert executor.boundary_stats()["batches"] == 2
        blob = json.dumps(
            [report_to_dict(r) for r in dataset.reports], sort_keys=True
        )
        assert blob == base_blob

    def test_start_times_must_match_requests(self):
        world = _tiny_world()
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        anchor = _anchor(world, "www.digitalrev.com")
        product = world.retailer("www.digitalrev.com").catalog.products[0]
        request = CheckRequest(
            url=f"http://www.digitalrev.com{product.path}", anchor=anchor
        )
        with pytest.raises(ValueError):
            backend.check_batch([request, request], start_times=[1.0])

    def test_process_executor_rejects_foreign_fleet(self):
        world = _tiny_world()
        backend = SheriffBackend(world.network, world.vantage_points, world.rates)
        anchor = _anchor(world, "www.digitalrev.com")
        product = world.retailer("www.digitalrev.com").catalog.products[0]
        request = CheckRequest(
            url=f"http://www.digitalrev.com{product.path}", anchor=anchor
        )
        with ProcessExecutor(world, 2) as executor:
            with pytest.raises(ExecError):
                backend.check_batch(
                    [request],
                    vantage_points=world.vantage_points[:3],
                    executor=executor,
                )

    def test_world_spec_round_trip(self):
        world = _tiny_world()
        spec = world.spec()
        assert spec == WorldSpec(config=world.config)
        rebuilt = spec.build()
        assert rebuilt.crawled_domains == world.crawled_domains
        assert [vp.name for vp in rebuilt.vantage_points] == [
            vp.name for vp in world.vantage_points
        ]
